package registry

// Key parsing — the inverse of TopoKey/placeKey, for the fleet tier.
//
// An edge daemon's remote store tier only holds a registry key when it
// misses; the origin it fetches from must turn that key back into the
// (platform, seed, options) or (topology key, policy, threads) request a
// registry can answer. Both parsers are strict: a key that does not
// re-serialize to the exact input is rejected, so a malformed or
// differently-normalized key can never alias another configuration's
// cache entry. Every failure wraps mctoperr.ErrInvalidRequest, like
// ParseMapKey's.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mctopalg"
	"repro/internal/mctoperr"
)

// ParseTopoKey inverts TopoKey: it recovers the platform, seed, reps and
// sampling mode a topology key encodes. The returned options always
// re-serialize to the exact input key (round-trip checked); any other key is
// an error.
func ParseTopoKey(key string) (platform string, seed uint64, opt mctopalg.Options, err error) {
	fail := func(format string, args ...any) (string, uint64, mctopalg.Options, error) {
		return "", 0, mctopalg.Options{}, fmt.Errorf("%w: bad topology key %q: %s",
			mctoperr.ErrInvalidRequest, key, fmt.Sprintf(format, args...))
	}
	rest, ok := strings.CutPrefix(key, topoPrefix)
	if !ok {
		return fail("missing topo| prefix")
	}
	// The option block is the last |-field and the seed the one before it;
	// everything in between is the platform (which therefore may itself
	// contain '|', unlike the option block).
	i := strings.LastIndexByte(rest, '|')
	if i < 0 {
		return fail("missing option block")
	}
	optBlock := rest[i+1:]
	j := strings.LastIndexByte(rest[:i], '|')
	if j < 0 {
		return fail("missing seed")
	}
	platform = rest[:j]
	if platform == "" {
		return fail("empty platform")
	}
	seed, perr := strconv.ParseUint(rest[j+1:i], 10, 64)
	if perr != nil {
		return fail("bad seed %q", rest[j+1:i])
	}

	// The option block is r<reps> followed by one of the two constant
	// field lists (see TopoKey); the constants name the fixed parameters,
	// and no other values for them resolve.
	repsField, fields, _ := strings.Cut(optBlock, ",")
	reps, ok := strings.CutPrefix(repsField, "r")
	if !ok {
		return fail("option block does not start with r<reps>")
	}
	if opt.Reps, perr = strconv.Atoi(reps); perr != nil {
		return fail("bad reps %q", reps)
	}
	switch "," + fields {
	case topoKeyExhaustive:
	case topoKeySampled:
		opt.Sampling = true
	default:
		return fail("option fields %q are not the fixed parameters", fields)
	}
	// Strictness: only keys this registry version would itself emit
	// resolve. Anything else — trailing junk, a non-canonical or
	// un-normalized reps — must not alias a cache entry.
	if TopoKey(platform, seed, opt) != key {
		return fail("does not round-trip")
	}
	return platform, seed, opt, nil
}

// ParsePlaceKey inverts placeKey: it splits a placement key into the
// embedded topology key, the policy name and the thread count. The
// topology key is validated (ParseTopoKey) so the whole placement key
// round-trips; a policy name containing '|' cannot be recovered and is
// rejected by that check.
func ParsePlaceKey(key string) (topoK string, policy string, nThreads int, err error) {
	fail := func(format string, args ...any) (string, string, int, error) {
		return "", "", 0, fmt.Errorf("%w: bad placement key %q: %s",
			mctoperr.ErrInvalidRequest, key, fmt.Sprintf(format, args...))
	}
	rest, ok := strings.CutPrefix(key, placePrefix)
	if !ok {
		return fail("missing place| prefix")
	}
	i := strings.LastIndexByte(rest, '|')
	if i < 0 {
		return fail("missing thread count")
	}
	nThreads, perr := strconv.Atoi(rest[i+1:])
	if perr != nil || nThreads < 0 {
		return fail("bad thread count %q", rest[i+1:])
	}
	j := strings.LastIndexByte(rest[:i], '|')
	if j < 0 {
		return fail("missing policy")
	}
	topoK, policy = rest[:j], rest[j+1:i]
	if policy == "" {
		return fail("empty policy")
	}
	if _, _, _, err := ParseTopoKey(topoK); err != nil {
		return fail("embedded topology key: %v", err)
	}
	// The same strictness as ParseTopoKey: the parsed fields must
	// re-serialize to the exact input, so a non-canonical rendering (a
	// zero-padded or signed thread count) cannot alias the canonical
	// entry's key.
	if placePrefix+topoK+"|"+policy+"|"+strconv.Itoa(nThreads) != key {
		return fail("does not round-trip")
	}
	return topoK, policy, nThreads, nil
}

// topoKeyOfPlaceKey is the placement kind's parent-key function: it
// extracts the embedded topology key from "place|<topo key>|<policy>|
// <threads>" by trimming the prefix and the last two fields, without the
// validation ParsePlaceKey pays for — this runs on every spool write of a
// placement. A custom policy whose name contains '|' would mis-split here;
// the extracted key then misses in the spool and that placement degrades
// to a recompute on warm start — never a wrong result.
func topoKeyOfPlaceKey(placeKey string) (string, bool) {
	rest, ok := strings.CutPrefix(placeKey, placePrefix)
	if !ok {
		return "", false
	}
	i := strings.LastIndexByte(rest, '|') // before <threads>
	if i < 0 {
		return "", false
	}
	j := strings.LastIndexByte(rest[:i], '|') // before <policy>
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// topoKeyOfMapKey is the mapping kind's parent-key function. Mapping keys
// are strictly parseable (ParseMapKey), so unlike placement keys there is
// no ambiguity to tolerate: an unparsable key is simply not a mapping key.
func topoKeyOfMapKey(mapKey string) (string, bool) {
	tk, _, _, _, _, err := ParseMapKey(mapKey)
	if err != nil {
		return "", false
	}
	return tk, true
}
