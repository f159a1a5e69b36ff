package topo_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestDotPinned pins the bytes of both graphs on the five golden fixtures
// and on the inferred ring and circulant: how a Topology stores its
// interconnect must not move an edge, a label or an annotation.
func TestDotPinned(t *testing.T) {
	want := map[string]string{
		"ivy.mctop":               "3b5cfaafb1e2f098594ab8442150010a20083727f04e5374a6c029eefd019643",
		"westmere.mctop":          "9b9d629498a5652c954cfe517a270d2c0f188af0774881526fea1942954c9fb7",
		"haswell.mctop":           "9d5b36c1b46f1f7e0c71dbc090dd5900d7325bce4089f62c8d1c47a02fa873a8",
		"opteron.mctop":           "e6dd39929183a26dae6c8ea78e37577846ada58630e58f8bdf051421e650644e",
		"sparc.mctop":             "837fdbc6b39732df877979245226c0a2acb6f0b0f1353a63ca1e454d68750329",
		"gen-ring-s6-c2-t2":       "ff3824bbf1b7b7f974bb04851bb975916584109322a792df138c47e0688a6e8b",
		"gen-circulant-s16-c4-t2": "2a638ee2e0e3366aa0d1ffb090fe6c59a802315cbc8d7f7f01e22ea518fdd201",
	}
	tops, err := oracleTopologies()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, o := range tops {
		w, ok := want[o.name]
		if !ok {
			continue
		}
		seen++
		sum := sha256.Sum256([]byte(o.top.DotCrossSocket() + o.top.DotIntraSocket(0)))
		if got := hex.EncodeToString(sum[:]); got != w {
			t.Errorf("%s: DOT digest %s, pinned %s", o.name, got, w)
		}
	}
	if seen != len(want) {
		t.Errorf("%d of %d pinned topologies built", seen, len(want))
	}
}
