package kvstore

import "fmt"

// Partition splits the workload across shards by hash-partitioning
// the value universe: shard s holds, for every stored set, exactly
// the members v with v mod shards == s. A query's full intersection
// is then the disjoint union of its per-shard intersections, so a
// client that fans the query out to every shard and merges the
// responses computes the same answer the unsharded store would —
// the canonical partitioned-fleet topology where the query completes
// when the slowest shard responds.
//
// Each returned workload shares the original query trace but carries
// its own store (the shard's slice of every set) and its own Times:
// the service time of each sub-query, calibrated by executing the
// intersection against the shard's slices for real and applying the
// same cost model. Sub-queries scan roughly 1/shards of the elements
// but still pay the full per-request base cost, so sharding buys the
// usual sub-linear speedup — and the per-query response becomes a
// max over shards, the regime where a single straggling shard delays
// the whole query.
func (w *Workload) Partition(shards int) ([]*Workload, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("kvstore: Partition(%d) needs at least one shard", shards)
	}
	if len(w.Queries) == 0 {
		return nil, fmt.Errorf("kvstore: cannot partition an empty workload")
	}
	out := make([]*Workload, shards)
	for s := range out {
		out[s] = &Workload{
			Store:   NewStore(),
			Queries: w.Queries,
			Times:   make([]float64, len(w.Queries)),
			Cost:    w.Cost,
		}
	}
	// Filtering a sorted set preserves order, so the shard slices can
	// be installed directly without re-sorting.
	for _, key := range w.Store.Keys() {
		parts := make([]Set, shards)
		for _, v := range w.Store.sets[key] {
			s := int(uint32(v) % uint32(shards))
			parts[s] = append(parts[s], v)
		}
		for s := range parts {
			out[s].Store.setSorted(key, parts[s])
		}
	}
	for _, part := range out {
		if err := part.calibrate(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
