package cluster

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/reissue"
)

func shardTraces(n, shards int) []ServiceSource {
	// Deterministic per-shard traces with distinct shapes: shard s's
	// query i holds for 1 + ((i*7+s*3) mod 5) time units.
	out := make([]ServiceSource, shards)
	for s := 0; s < shards; s++ {
		times := make([]float64, n)
		for i := range times {
			times[i] = float64(1 + (i*7+s*3)%5)
		}
		out[s] = &TraceSource{Times: times}
	}
	return out
}

func shardedBase(queries int) Config {
	return Config{
		Servers:     3,
		ArrivalRate: 0.5,
		Queries:     queries,
		Warmup:      50,
		Seed:        9,
		LB:          HashedLB{},
	}
}

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(ShardedConfig{Base: shardedBase(100)}); err == nil {
		t.Error("NewSharded accepted zero shards")
	}
	cfg := ShardedConfig{Base: shardedBase(100), Sources: shardTraces(100, 2)}
	cfg.Base.FanOut = 2
	if _, err := NewSharded(cfg); err == nil {
		t.Error("NewSharded accepted Base.FanOut > 1")
	}
	cfg = ShardedConfig{Base: shardedBase(0), Sources: shardTraces(10, 2)}
	if _, err := NewSharded(cfg); err == nil {
		t.Error("NewSharded accepted an invalid per-shard config")
	}
}

// TestShardedOneShardDegeneratesExactly pins the composition contract:
// a one-shard Sharded is byte-identical to the plain Cluster it wraps
// (same arrival, service, coin, and placement streams).
func TestShardedOneShardDegeneratesExactly(t *testing.T) {
	const n = 400
	base := shardedBase(n)
	sh, err := NewSharded(ShardedConfig{Base: base, Sources: shardTraces(n, 1)})
	if err != nil {
		t.Fatal(err)
	}
	plain := base
	plain.Source = shardTraces(n, 1)[0]
	cl, err := New(plain)
	if err != nil {
		t.Fatal(err)
	}
	pol := reissue.SingleR{D: 2, Q: 0.4}
	got := sh.Run(pol)
	want := cl.Run(pol)
	if len(got.Query) != len(want.Query) {
		t.Fatalf("lengths differ: %d vs %d", len(got.Query), len(want.Query))
	}
	for i := range got.Query {
		if got.Query[i] != want.Query[i] {
			t.Fatalf("query %d: sharded %v != plain %v", i, got.Query[i], want.Query[i])
		}
	}
	if got.MeanRate != want.ReissueRate {
		t.Fatalf("reissue rate %v != %v", got.MeanRate, want.ReissueRate)
	}
}

// TestShardedSharesArrivalsDecorrelatesCoins checks the dependence
// structure the composition promises: identical arrival instants on
// every shard, independent reissue coin streams per shard.
func TestShardedSharesArrivalsDecorrelatesCoins(t *testing.T) {
	const n = 600
	sh, err := NewSharded(ShardedConfig{Base: shardedBase(n), Sources: shardTraces(n, 3)})
	if err != nil {
		t.Fatal(err)
	}
	res := sh.Run(reissue.SingleR{D: 0, Q: 0.5})
	for s := 1; s < sh.NumShards(); s++ {
		recs0 := res.PerShard[0].Log.Records
		recs := res.PerShard[s].Log.Records
		agree := 0
		for i := range recs {
			if recs[i].Arrival != recs0[i].Arrival {
				t.Fatalf("shard %d query %d arrival %v != shard 0's %v", s, i, recs[i].Arrival, recs0[i].Arrival)
			}
			if recs[i].Reissued == recs0[i].Reissued {
				agree++
			}
		}
		// With D=0 the completion check never interferes, so the coin
		// of query i fires independently per shard: agreement must sit
		// near 1/2, nowhere near the 100% a shared stream would give.
		frac := float64(agree) / float64(len(recs))
		if frac > 0.65 || frac < 0.35 {
			t.Errorf("shard %d coin agreement with shard 0 = %.2f, want ~0.5 (independent)", s, frac)
		}
		if rate := res.ShardRates[s]; math.Abs(rate-0.5) > 0.08 {
			t.Errorf("shard %d reissue rate %.3f far from Q=0.5", s, rate)
		}
	}
}

// TestShardedMaxOverShards checks the end-to-end merge: every merged
// response is the max over the shards' per-query responses, and the
// max-over-shards tail dominates every single shard's tail.
func TestShardedMaxOverShards(t *testing.T) {
	const n = 500
	sh, err := NewSharded(ShardedConfig{Base: shardedBase(n), Sources: shardTraces(n, 4)})
	if err != nil {
		t.Fatal(err)
	}
	res := sh.Run(reissue.None{})
	for i := range res.Query {
		max := 0.0
		for s := range res.PerShard {
			if rt := res.PerShard[s].Log.Records[i].Response; rt > max {
				max = rt
			}
		}
		if res.Query[i] != max {
			t.Fatalf("query %d: merged %v != max-over-shards %v", i, res.Query[i], max)
		}
	}
	e2e := res.TailLatency(0.9)
	for s := range res.PerShard {
		shard := reissue.RunResult{Query: res.PerShard[s].Log.ResponseTimes()}.TailLatency(0.9)
		if shard > e2e {
			t.Fatalf("shard %d P90 %v exceeds end-to-end P90 %v", s, shard, e2e)
		}
	}
}

// TestHashedLBPlacement checks HashedLB's contract on a plain
// cluster: every query's primary goes to hashReplica(id, n). The
// chosen server is not directly observable, so the test marks each
// server with a distinct speed factor and runs at near-zero load:
// the primary's response then equals service * speed of its server.
func TestHashedLBPlacement(t *testing.T) {
	// Speed factors pick out the chosen server: at zero load, the
	// primary's response time is service * speed[hashReplica(id, n)].
	const n = 64
	speeds := []float64{1, 2, 4}
	times := make([]float64, n)
	for i := range times {
		times[i] = 1
	}
	cl, err := New(Config{
		Servers:      3,
		ArrivalRate:  0.001, // essentially sequential: no queueing
		Queries:      n,
		Source:       &TraceSource{Times: times},
		SpeedFactors: speeds,
		LB:           HashedLB{},
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := cl.RunDetailed(reissue.None{})
	for i, rec := range res.Log.Records {
		want := speeds[hashReplica(i, 3)]
		if math.Abs(rec.Primary-want) > 1e-9 {
			t.Fatalf("query %d: primary response %v, want %v (hashed placement)", i, rec.Primary, want)
		}
	}
}

// TestPolicySeedDecouplesCoins checks the PolicySeed override: same
// Seed, different PolicySeed must flip different coins while keeping
// the arrival stream identical; PolicySeed zero preserves the
// historical stream bit for bit.
func TestPolicySeedDecouplesCoins(t *testing.T) {
	mk := func(policySeed uint64) *Result {
		cfg := shardedBase(400)
		cfg.LB = nil // default RandomLB, the historical configuration
		cfg.Source = shardTraces(400, 1)[0]
		cfg.PolicySeed = policySeed
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cl.RunDetailed(reissue.SingleR{D: 0, Q: 0.5})
	}
	legacy, again := mk(0), mk(0)
	for i := range legacy.Log.Records {
		if legacy.Log.Records[i].Reissued != again.Log.Records[i].Reissued {
			t.Fatal("PolicySeed=0 runs are not reproducible")
		}
	}
	other := mk(0xfeedface)
	same := 0
	for i := range legacy.Log.Records {
		if legacy.Log.Records[i].Arrival != other.Log.Records[i].Arrival {
			t.Fatal("PolicySeed changed the arrival stream")
		}
		if legacy.Log.Records[i].Reissued == other.Log.Records[i].Reissued {
			same++
		}
	}
	if frac := float64(same) / float64(len(legacy.Log.Records)); frac > 0.65 {
		t.Fatalf("coin agreement %.2f with a different PolicySeed, want ~0.5", frac)
	}
}

// TestShardedStochasticSourcesIndependent checks that a sharded run
// over stochastic sources draws independent service times per shard:
// each shard serves its own slice of the data, so DistSource shards
// must not replay shard 0's draws (ServiceSeed salting), while the
// arrival instants stay shared.
func TestShardedStochasticSourcesIndependent(t *testing.T) {
	const n = 500
	base := shardedBase(n)
	srcs := make([]ServiceSource, 3)
	for s := range srcs {
		srcs[s] = DistSource{Dist: stats.NewExponential(1)}
	}
	sh, err := NewSharded(ShardedConfig{Base: base, Sources: srcs})
	if err != nil {
		t.Fatal(err)
	}
	res := sh.Run(reissue.None{})
	recs0 := res.PerShard[0].Log.Records
	for s := 1; s < sh.NumShards(); s++ {
		recs := res.PerShard[s].Log.Records
		same := 0
		for i := range recs {
			if recs[i].Arrival != recs0[i].Arrival {
				t.Fatalf("shard %d query %d arrival differs from shard 0", s, i)
			}
			// At near-unique float64 service draws, identical primary
			// response times identify a replayed stream.
			if recs[i].Primary == recs0[i].Primary {
				same++
			}
		}
		if same > len(recs)/20 {
			t.Errorf("shard %d replayed %d/%d of shard 0's service draws — streams not independent", s, same, len(recs))
		}
	}
}
