// Package mapreduce is a Metis-style in-memory MapReduce library for
// multi-cores (Section 7.3 of the MCTOP paper).
//
// Like Metis, it runs map tasks over input splits on a fixed pool of
// worker threads, partitions intermediate pairs by key hash, and reduces
// each partition independently. Unlike stock Metis — which pins workers to
// hardware contexts sequentially — the pool takes an MCTOP-PLACE placement,
// so any of the 12 policies of Table 2 drives where workers run; this is
// exactly the modification the paper evaluates in Figure 10.
package mapreduce

import (
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/place"
)

// Job describes a MapReduce computation. In is the input-split type, K/V
// the intermediate key/value types, R the per-key result type.
type Job[In any, K comparable, V any, R any] struct {
	// Inputs are the map tasks.
	Inputs []In
	// Map processes one split, emitting intermediate pairs.
	Map func(in In, emit func(K, V))
	// Reduce folds all values of one key.
	Reduce func(key K, values []V) R
	// Workers is the pool size (default: placement capacity, or NumCPU-ish
	// 4 without a placement).
	Workers int
	// Placement optionally pins the pool with an MCTOP-PLACE policy; nil
	// reproduces stock Metis' behaviour of taking threads as they come.
	Placement *place.Placement
	// Partition overrides the key partitioner (default: FNV of the key's
	// string form).
	Partition func(K) uint64
}

// Result carries the reduced output and pool statistics.
type Result[K comparable, R any] struct {
	Out map[K]R
	// WorkerCtxs records which hardware context each worker was pinned to
	// (-1 = unpinned).
	WorkerCtxs []int
}

// Run executes the job. It is deterministic for deterministic Map/Reduce
// functions: the output is key-complete regardless of worker count.
func Run[In any, K comparable, V any, R any](job Job[In, K, V, R]) (Result[K, R], error) {
	if job.Map == nil || job.Reduce == nil {
		return Result[K, R]{}, fmt.Errorf("mapreduce: Map and Reduce are required")
	}
	workers := job.Workers
	if workers <= 0 {
		if job.Placement != nil {
			workers = job.Placement.NThreads()
		} else {
			workers = 4
		}
	}
	if workers < 1 {
		workers = 1
	}
	part := job.Partition
	if part == nil {
		part = func(k K) uint64 {
			h := fnv.New64a()
			fmt.Fprintf(h, "%v", k)
			return h.Sum64()
		}
	}

	res := Result[K, R]{WorkerCtxs: make([]int, workers)}

	// Pin workers through the placement.
	for w := 0; w < workers; w++ {
		res.WorkerCtxs[w] = -1
		if job.Placement != nil {
			if ctx, ok := job.Placement.PinNext(); ok {
				res.WorkerCtxs[w] = ctx
			}
		}
	}
	defer func() {
		if job.Placement != nil {
			for _, c := range res.WorkerCtxs {
				if c >= 0 {
					job.Placement.Unpin(c)
				}
			}
		}
	}()

	// Map phase: workers pull splits; each keeps per-partition buffers.
	type kv struct {
		k K
		v V
	}
	buffers := make([][][]kv, workers) // [worker][partition][]kv
	for w := range buffers {
		buffers[w] = make([][]kv, workers)
	}
	tasks := make(chan int, len(job.Inputs))
	for i := range job.Inputs {
		tasks <- i
	}
	close(tasks)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			emit := func(k K, v V) {
				p := int(part(k) % uint64(workers))
				buffers[w][p] = append(buffers[w][p], kv{k, v})
			}
			for i := range tasks {
				job.Map(job.Inputs[i], emit)
			}
		}(w)
	}
	wg.Wait()

	// Reduce phase: worker p owns partition p across all map buffers.
	shards := make([]map[K]R, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			grouped := make(map[K][]V)
			for w := 0; w < workers; w++ {
				for _, e := range buffers[w][p] {
					grouped[e.k] = append(grouped[e.k], e.v)
				}
			}
			shard := make(map[K]R, len(grouped))
			for k, vs := range grouped {
				shard[k] = job.Reduce(k, vs)
			}
			shards[p] = shard
		}(w)
	}
	wg.Wait()

	// Merge shards (disjoint by construction).
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	res.Out = make(map[K]R, total)
	for _, s := range shards {
		for k, r := range s {
			res.Out[k] = r
		}
	}
	return res, nil
}
