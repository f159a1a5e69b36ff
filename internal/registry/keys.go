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
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mctopalg"
	"repro/internal/mctoperr"
)

// ParseTopoKey inverts TopoKey: it recovers the platform, seed and
// normalized inference options a topology key encodes. The returned
// options always re-serialize to the exact input key (round-trip checked);
// any other key is an error.
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

	// The option block is a fixed-order, prefix-tagged field list (see
	// TopoKey). Parse positionally.
	fields := strings.Split(optBlock, ",")
	if len(fields) != 14 {
		return fail("%d option fields, want 14", len(fields))
	}
	take := func(idx int, tag string) (string, bool) {
		v, ok := strings.CutPrefix(fields[idx], tag)
		return v, ok && v != ""
	}
	parse := []struct {
		idx  int
		tag  string
		into func(string) error
	}{
		{0, "r", func(v string) error { n, e := strconv.Atoi(v); opt.Reps = n; return e }},
		{1, "s", func(v string) error { f, e := strconv.ParseFloat(v, 64); opt.StdevThreshold = f; return e }},
		{2, "sm", func(v string) error { f, e := strconv.ParseFloat(v, 64); opt.StdevThresholdMax = f; return e }},
		{3, "mr", func(v string) error { n, e := strconv.Atoi(v); opt.MaxRetries = n; return e }},
		{4, "cg", func(v string) error { f, e := strconv.ParseFloat(v, 64); opt.Cluster.RelGap = f; return e }},
		{5, "ca", func(v string) error { n, e := strconv.ParseInt(v, 10, 64); opt.Cluster.AbsGap = n; return e }},
		{6, "cm", func(v string) error { n, e := strconv.Atoi(v); opt.Cluster.MaxClusters = n; return e }},
		{7, "su", func(v string) error { n, e := strconv.ParseInt(v, 10, 64); opt.SpinUnit = n; return e }},
		{8, "smp", func(v string) error { b, e := strconv.ParseBool(v); opt.SkipMemoryProbe = b; return e }},
		{9, "fe", func(v string) error {
			// The forked-enrichment mode this bit selected was removed;
			// TopoKey emits the constant, and only the constant resolves.
			if v != "false" {
				return errors.New("forked enrichment was removed, only fefalse resolves")
			}
			return nil
		}},
		{10, "se", func(v string) error { b, e := strconv.ParseBool(v); opt.Sampling.Enabled = b; return e }},
		{11, "sp", func(v string) error { n, e := strconv.Atoi(v); opt.Sampling.Pilots = n; return e }},
		{12, "smc", func(v string) error { n, e := strconv.Atoi(v); opt.Sampling.MinContexts = n; return e }},
		{13, "sv", func(v string) error { n, e := strconv.Atoi(v); opt.Sampling.VerifyPerBlock = n; return e }},
	}
	for _, p := range parse {
		v, ok := take(p.idx, p.tag)
		if !ok {
			return fail("option field %d is not %s-tagged", p.idx, p.tag)
		}
		if err := p.into(v); err != nil {
			return fail("option field %s%s: %v", p.tag, v, err)
		}
	}
	// Strictness: only keys this registry version would itself emit
	// resolve. Anything else — trailing junk, non-canonical float
	// rendering, an un-normalized option — must not alias a cache entry.
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
