package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// groundTruthDigest hashes everything a platform answers about its
// interconnect and memory: SocketLatency and SocketDistance for every
// socket pair, PairLatency for every context pair, and MemLat and MemBW.
func groundTruthDigest(p *Platform) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for a := 0; a < p.Sockets; a++ {
		for b := 0; b < p.Sockets; b++ {
			put(uint64(p.SocketLatency(a, b)))
			put(uint64(p.SocketDistance(a, b)))
		}
	}
	n := p.NumContexts()
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			put(uint64(p.PairLatency(x, y)))
		}
	}
	for s := range p.MemLat {
		for node := range p.MemLat[s] {
			put(uint64(p.MemLat[s][node]))
			put(math.Float64bits(p.MemBW[s][node]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGroundTruthPinned pins the ground truth of the five golden platforms,
// of every Custom shape the tests build, and of a few generated shapes, so
// a change to how a platform describes its interconnect cannot move a
// latency, a hop count or a memory figure. The custom-sweep row hashes the
// digests of TestCustomPlatformValid's whole shape range in order.
func TestGroundTruthPinned(t *testing.T) {
	got := map[string]string{}
	for _, p := range Platforms() {
		got[p.Name] = groundTruthDigest(p)
	}
	for _, name := range []string{"gen:mesh:s6:c6:t2:v3", "gen:ring:s5:c4:t2", "gen:circulant:s8:c8:t1"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = groundTruthDigest(p)
	}
	for _, c := range []struct {
		name                string
		sockets, cores, smt int
		scale               int64
		numbering           Numbering
	}{
		{"c2x2x2s1h", 2, 2, 2, 1, NumberingIntelHalves},
		{"c3x6x2s2h", 3, 6, 2, 2, NumberingIntelHalves},
		{"c2x7x4s1c", 2, 7, 4, 1, NumberingConsecutive},
		{"c1x2x1s1h", 1, 2, 1, 1, NumberingIntelHalves},
		{"c1x1x1s1c", 1, 1, 1, 1, NumberingConsecutive},
		{"c1x4x2s1h", 1, 4, 2, 1, NumberingIntelHalves},
		{"c1x8x1s2c", 1, 8, 1, 2, NumberingConsecutive},
		{"c2x2x2s1c", 2, 2, 2, 1, NumberingConsecutive},
		{"c2x6x1s3c", 2, 6, 1, 3, NumberingConsecutive},
		{"c3x4x4s1c", 3, 4, 4, 1, NumberingConsecutive},
		{"c4x2x2s2h", 4, 2, 2, 2, NumberingIntelHalves},
		{"c4x6x1s1c", 4, 6, 1, 1, NumberingConsecutive},
		{"c2x10x2s1h", 2, 10, 2, 1, NumberingIntelHalves},
	} {
		got[c.name] = groundTruthDigest(Custom(c.name, c.sockets, c.cores, c.smt, c.scale, c.numbering))
	}
	sweep := sha256.New()
	for s := 1; s <= 4; s++ {
		for c := 1; c <= 8; c++ {
			for m := 1; m <= 4; m++ {
				for sc := int64(1); sc <= 3; sc++ {
					sweep.Write([]byte(groundTruthDigest(Custom("t", s, c, m, sc, NumberingConsecutive))))
				}
			}
		}
	}
	got["custom-sweep"] = hex.EncodeToString(sweep.Sum(nil))

	if len(got) != len(groundTruthPins) {
		t.Errorf("%d digests, %d pins", len(got), len(groundTruthPins))
	}
	for name, g := range got {
		if w := groundTruthPins[name]; g != w {
			t.Errorf("%s: ground truth digest %s, pinned %s", name, g, w)
		}
	}
}

var groundTruthPins = map[string]string{
	"Ivy":                    "1c7ca321444db8f66595820705ce9a475353c1099d8ec08d41e8d6358a9fe244",
	"Westmere":               "b2151b70993f65d83cde435621156bce7adc07ff7e821b832971d5d2f1ba03cf",
	"Haswell":                "7e3f182de2906e148e6c69159e23aa9a57b6c82403279b1294cab548a60f9339",
	"Opteron":                "2c8bd90cc58196e10c6ce3e2315a6b5d0c192e40a30d2451ea65af46c7af4d04",
	"SPARC":                  "31970fa4c948a8a18d72c00b894dc2bce4bd262bf13d56eb317872d86e84fc57",
	"gen:mesh:s6:c6:t2:v3":   "e9d34b54488663ad243ba48af3e9686bf32e2037a652ad8dae2d1a9a16913b49",
	"gen:ring:s5:c4:t2":      "4d19e6f1c0f5a42528e4ee626d466da14b38add7073aaa79cc9c1f47d2671a5e",
	"gen:circulant:s8:c8:t1": "6e0399874b678f176ab6d8305d74a9099ff5c1c3e4b3e3ab258ace7a698c40a3",
	"c2x2x2s1h":              "def4ceb374ee30d09a11e94259d85549b3184500d860b3663e8d11584c98a9ec",
	"c3x6x2s2h":              "6bc66b6b7b87d33d66a67d4dd72eb696736f8e3dc4731feee3a8e75acfc01176",
	"c2x7x4s1c":              "be1cdb9a851ad9cb1309fcf82bd0e5aabf6afec0638f09a36bb5e0ad4b0f2cbb",
	"c1x2x1s1h":              "7200d6a96c4153119c60ec3fe5ad79e5358351108bcdd8f254a6914f5221175d",
	"c1x1x1s1c":              "3d798e271b54396483c0eedf8fe900ea225eef0f7f18dc4b3e69dd60d720f03d",
	"c1x4x2s1h":              "2f905ab50d5951fe0fe3e74113dc4dcb54048561e34b3a126d699933a32ab630",
	"c1x8x1s2c":              "b67ef77af92074bdd29f38af25286e7b6b07af11c035474ba17e54c14e95a023",
	"c2x2x2s1c":              "394138176390a2c85fe6ff4379f48c49117d737637fcb4cda7245ce1099034a1",
	"c2x6x1s3c":              "46188f43313e344989335454e2e0656933b497aadac4ac15b5e3ff36d18351f1",
	"c3x4x4s1c":              "4da42fac77538d89ac4b043f0162254f674583fb77daa096e6d2e6cd6fa94bb6",
	"c4x2x2s2h":              "938c2762bbfa9468f1a8fc33d81c07f83436d77b1bd9727fa377ed98ba4d7d87",
	"c4x6x1s1c":              "7c2fb22e8e2ba4145c60cb0fab59e39ba3888480fd80a77d74fab8309993fa83",
	"c2x10x2s1h":             "40d1f0ee155c7772d9554cde88de5a5f16cae74578a544ea411d9787aedc7685",
	"custom-sweep":           "3889e3715a403216028d96f5195902af83f3ee13aefea2315cf9b448cfc92593",
}
