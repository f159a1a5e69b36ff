package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"

	mctop "repro"
	"repro/internal/place"
)

// runPlace computes MCTOP-PLACE thread placements and prints the report of
// the paper's Figure 7. It is a thin shell around the client API's Alloc:
// infer (or load) a topology, resolve or compose a policy, build the
// allocator, print its report.
func runPlace(args []string) {
	fs := flag.NewFlagSet("mctop place", flag.ExitOnError)
	var (
		platform  = fs.String("platform", "Ivy", "simulated platform to infer")
		seed      = fs.Uint64("seed", 42, "simulator noise seed")
		load      = fs.String("load", "", "load a description file instead of inferring")
		policy    = fs.String("policy", "CON_HWC", "placement policy (see -all for the list)")
		threads   = fs.Int("threads", 0, "threads to place (0 = as many as the policy allows)")
		sockets   = fs.Int("sockets", 0, "sockets to use (0 = all)")
		onSockets = fs.String("on-sockets", "", "comma-separated socket ids to restrict the policy to")
		limit     = fs.Int("limit", 0, "cap the placement at this many slots (0 = no cap)")
		reverse   = fs.Bool("reverse", false, "invert the policy's order (least-preferred contexts first)")
		all       = fs.Bool("all", false, "print every builtin policy's placement")
	)
	fs.Parse(args)

	var top *mctop.Topology
	var err error
	if *load != "" {
		top, err = mctop.Load(*load)
	} else {
		top, err = mctop.Infer(context.Background(), *platform, *seed)
	}
	fail(err)

	opts := []mctop.PlaceOption{mctop.WithThreads(*threads), mctop.WithSockets(*sockets)}
	if *all {
		for _, pol := range place.Policies() {
			alloc, err := mctop.NewAlloc(top, pol, opts...)
			if err != nil {
				fmt.Printf("## %v: %v\n\n", pol, err)
				continue
			}
			fmt.Print(alloc.Report())
			fmt.Println()
		}
		return
	}

	pol, err := mctop.ResolvePolicy(*policy)
	fail(err)
	composed, err := compose(pol, *onSockets, *limit, *reverse)
	fail(err)
	alloc, err := mctop.NewAlloc(top, composed, opts...)
	fail(err)
	fmt.Print(alloc.Report())
}

// compose applies the combinator flags to the base policy. Reverse wraps
// before Limit so -reverse -limit N yields the N least-preferred contexts
// (matching the library's Reverse + NThreads semantics), not the N
// most-preferred ones reversed.
func compose(pol mctop.Policy, onSockets string, limit int, reverse bool) (mctop.Policy, error) {
	if onSockets != "" {
		var ids []int
		for _, part := range strings.Split(onSockets, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("bad -on-sockets %q: %v", onSockets, err)
			}
			ids = append(ids, id)
		}
		pol = mctop.OnSockets(pol, ids...)
	}
	if reverse {
		pol = mctop.Reverse(pol)
	}
	if limit > 0 {
		pol = mctop.Limit(pol, limit)
	}
	return pol, nil
}
