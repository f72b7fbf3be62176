package cluster_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/reissue/hedge/backend"
)

// TestHashReplicaMatchesPrimaryReplica pins hashReplica against the
// live runtime's backend.PrimaryReplica bit for bit — the duplication
// exists only because this package cannot import the backend without
// inverting the dependency direction, and HashedLB's whole point is
// reproducing the live placement exactly.
func TestHashReplicaMatchesPrimaryReplica(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17} {
		for i := 0; i < 5000; i++ {
			if got, want := cluster.HashReplica(i, n), backend.PrimaryReplica(i, n); got != want {
				t.Fatalf("hashReplica(%d, %d) = %d, backend.PrimaryReplica = %d", i, n, got, want)
			}
		}
	}
}
