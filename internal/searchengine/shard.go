package searchengine

import "fmt"

// GenerateShardedWorkload builds the document-partitioned topology of
// a production search fleet ("The Tail at Scale": a query fans out to
// every index shard and completes when the slowest answers): it
// synthesizes the same corpus GenerateWorkload would for this
// configuration, round-robins the documents over `shards` sub-indexes
// (document d lands on shard d mod shards, so local id l on shard s
// is global document s + l*shards), and emits one Workload per shard
// sharing a single query trace.
//
// Each shard's Times are calibrated by executing every query against
// that shard's sub-index for real and applying the cost model: a
// sub-query traverses roughly 1/shards of the postings but pays the
// full per-request base cost, the usual sub-linear partition speedup.
// Per-shard TF-IDF weights use shard-local document frequencies, as
// real document-sharded engines score before merging.
//
// Given the same WorkloadConfig, the query trace is identical to the
// one GenerateWorkload produces, so an unsharded baseline and the
// sharded fleet replay the same queries.
func GenerateShardedWorkload(cfg WorkloadConfig, shards int) ([]*Workload, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("searchengine: GenerateShardedWorkload(%d) needs at least one shard", shards)
	}
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	docs := synthDocs(cfg.Corpus)
	builders := make([]*Builder, shards)
	for s := range builders {
		builders[s] = NewBuilder(cfg.Corpus.VocabSize, false)
	}
	for d, tokens := range docs {
		builders[d%shards].AddDocument(tokens)
	}
	queries := sampleQueries(cfg)
	out := make([]*Workload, shards)
	for s := range out {
		ix := builders[s].Build()
		w := &Workload{
			Index:   ix,
			Queries: queries,
			Times:   make([]float64, len(queries)),
			Cost:    cfg.Cost,
		}
		if err := w.calibrate(); err != nil {
			return nil, err
		}
		out[s] = w
	}
	return out, nil
}
