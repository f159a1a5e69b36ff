package registry

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/mctopalg"
	"repro/internal/mctoperr"
	"repro/internal/place"
)

// fetrue rewrites a key to claim the removed forked-enrichment bit
// (position 9 of the option block): TopoKey only ever emits fefalse there,
// and nothing else resolves.
func fetrue(key string) string { return strings.Replace(key, ",fefalse,", ",fetrue,", 1) }

func TestParseTopoKeyRoundTrip(t *testing.T) {
	cases := []struct {
		platform string
		seed     uint64
		opt      mctopalg.Options
	}{
		{"Ivy", 42, mctopalg.Options{}},
		{"Ivy", 42, mctopalg.Options{Reps: 2000}},
		{"SPARC", 0, mctopalg.Options{Reps: 201}},
		{"Westmere", 18446744073709551615, mctopalg.Options{Reps: 51, Parallelism: 3}},
		{"a|weird|name", 1, mctopalg.Options{Reps: 11}}, // '|' in the platform survives
		{"gen:circulant:s64:c8:t2", 3, mctopalg.Options{Sampling: true}},
		{"gen:mesh:s25:c2:t2:v7", 5, mctopalg.Options{Reps: 15, Sampling: true}},
	}
	for _, c := range cases {
		key := TopoKey(c.platform, c.seed, c.opt)
		platform, seed, opt, err := ParseTopoKey(key)
		if err != nil {
			t.Fatalf("ParseTopoKey(%q): %v", key, err)
		}
		if platform != c.platform || seed != c.seed {
			t.Fatalf("ParseTopoKey(%q) = (%q, %d), want (%q, %d)", key, platform, seed, c.platform, c.seed)
		}
		// The recovered options must map to the same cache entry.
		if got := TopoKey(platform, seed, opt); got != key {
			t.Fatalf("re-serialized key %q != original %q", got, key)
		}
		want := c.opt.Normalized()
		want.Parallelism = 0 // excluded from keys by design, so not recoverable
		if opt != want {
			t.Fatalf("recovered options %+v, want normalized %+v", opt, want)
		}
	}
}

// TestTopoKeyBytesPinned pins TopoKey to the bytes recorded before the
// Section 3.5 parameters became constants: spool file names, #key headers
// and export addresses are fixed points, so no option may move them.
func TestTopoKeyBytesPinned(t *testing.T) {
	const (
		exhaustive = ",s0.07,sm0.14,mr3,cg0.04,ca10,cm0,su1000000,smpfalse,fefalse,sefalse,sp0,smc0,sv0"
		sampled    = ",s0.07,sm0.14,mr3,cg0.04,ca10,cm0,su1000000,smpfalse,fefalse,setrue,sp0,smc64,sv6"
	)
	for _, c := range []struct {
		opt  mctopalg.Options
		want string
	}{
		{mctopalg.Options{}, "topo|Ivy|42|r2000" + exhaustive},
		{mctopalg.Options{Reps: 51}, "topo|Ivy|42|r51" + exhaustive},
		{mctopalg.Options{Sampling: true}, "topo|Ivy|42|r2000" + sampled},
		{mctopalg.Options{Reps: 201, Sampling: true}, "topo|Ivy|42|r201" + sampled},
	} {
		if got := TopoKey("Ivy", 42, c.opt); got != c.want {
			t.Errorf("TopoKey(%+v) = %q, want %q", c.opt, got, c.want)
		}
	}
}

// TestParseTopoKeyRejectsFormerParameters: the option fields after r<reps>
// name the fixed parameters, so a key carrying any other value for one —
// which a registry that let callers set them could have emitted — resolves
// to nothing.
func TestParseTopoKeyRejectsFormerParameters(t *testing.T) {
	for _, good := range []string{
		TopoKey("Ivy", 42, mctopalg.Options{Reps: 201}),
		TopoKey("Ivy", 42, mctopalg.Options{Reps: 201, Sampling: true}),
	} {
		for _, field := range [][2]string{
			{",s0.07,", ",s0.05,"},
			{",sm0.14,", ",sm0.2,"},
			{",mr3,", ",mr1,"},
			{",cg0.04,", ",cg0.1,"},
			{",ca10,", ",ca5,"},
			{",cm0,", ",cm2,"},
			{",su1000000,", ",su10,"},
			{",smpfalse,", ",smptrue,"},
			{",sp0,", ",sp16,"},
			{",smc0,", ",smc32,"},
			{",smc64,", ",smc32,"},
			{",sv0", ",sv9"},
			{",sv6", ",sv9"},
		} {
			if !strings.Contains(good, field[0]) {
				continue
			}
			key := strings.Replace(good, field[0], field[1], 1)
			_, _, _, err := ParseTopoKey(key)
			if !errors.Is(err, mctoperr.ErrInvalidRequest) {
				t.Errorf("ParseTopoKey(%q) = %v, want ErrInvalidRequest", key, err)
			}
		}
	}
}

func TestParseTopoKeyRejectsMalformed(t *testing.T) {
	good := TopoKey("Ivy", 42, mctopalg.Options{Reps: 201})
	bad := []string{
		"",
		"topo|",
		"place|Ivy|42|r201",
		"topo|Ivy|42",                      // no option block
		"topo|Ivy|nan|r201",                // bad seed
		good + ",x1",                       // trailing junk field
		good + "junk",                      // trailing junk bytes
		strings.Replace(good, "r", "R", 1), // wrong tag
		good[:strings.Index(good, ",se")],  // pre-sampling 10-field key must not resolve
		"topo||42|" + good[strings.LastIndexByte(good, '|')+1:], // empty platform
		fetrue(good),
	}
	for _, key := range bad {
		_, _, _, err := ParseTopoKey(key)
		if err == nil {
			t.Fatalf("ParseTopoKey(%q) accepted a malformed key", key)
		}
		if !errors.Is(err, mctoperr.ErrInvalidRequest) {
			t.Fatalf("ParseTopoKey(%q) error %v does not wrap ErrInvalidRequest", key, err)
		}
	}
}

func TestParsePlaceKeyRoundTrip(t *testing.T) {
	tk := TopoKey("Opteron", 9, mctopalg.Options{Reps: 51})
	for _, pol := range []place.Orderer{place.RRCore, place.PowerPolicy, place.Limit(place.ConHWC, 4)} {
		for _, n := range []int{0, 8, 48} {
			key := placeKey(tk, pol, n)
			gotTk, gotPol, gotN, err := ParsePlaceKey(key)
			if err != nil {
				t.Fatalf("ParsePlaceKey(%q): %v", key, err)
			}
			if gotTk != tk || gotPol != pol.Name() || gotN != n {
				t.Fatalf("ParsePlaceKey(%q) = (%q, %q, %d), want (%q, %q, %d)",
					key, gotTk, gotPol, gotN, tk, pol.Name(), n)
			}
		}
	}
}

func TestParsePlaceKeyRejectsMalformed(t *testing.T) {
	tk := TopoKey("Ivy", 42, mctopalg.Options{Reps: 201})
	bad := []string{
		"",
		tk,                         // a topology key is not a placement key
		"place|" + tk,              // no policy/threads
		"place|" + tk + "|RR_CORE", // threads missing
		"place|" + tk + "|RR_CORE|minus",
		"place|" + tk + "|RR_CORE|-1",
		"place|not-a-topo-key|RR_CORE|8",
		"place|" + tk + "||8",          // empty policy
		"place|" + tk + "|RR_CORE|007", // non-canonical threads must not alias |7
		"place|" + tk + "|RR_CORE|+8",
		"place|" + fetrue(tk) + "|RR_CORE|8",
	}
	for _, key := range bad {
		_, _, _, err := ParsePlaceKey(key)
		if err == nil {
			t.Fatalf("ParsePlaceKey(%q) accepted a malformed key", key)
		}
		if !errors.Is(err, mctoperr.ErrInvalidRequest) {
			t.Fatalf("ParsePlaceKey(%q) error %v does not wrap ErrInvalidRequest", key, err)
		}
	}
}
