package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// The figure goldens exclude Figures 7 and 9, so these digests are
// what pins the Redis and Lucene service-time traces in tier 1: every
// calibrated Times value must stay bit-identical across rewrites of
// the generators (set sampling, OR search, calibration fan-out).
const (
	redisTimesDigest  = "0276995384f045213a11a35b5a49d5f7eddf862cd2fd3936ed2bf4332c1c5dcd"
	luceneTimesDigest = "fcd864f483cd96eb51c79a684dc775f4f27bc2a9ff32dc473c8561faedcf46b7"
	figure9Digest     = "8f2969cb3f21660b8cea060b332c7fd3e5a7bb0f33a8dba0abcb3709b249a3c0"
)

// hashTimes digests a trace at full precision: sha256 over the
// little-endian math.Float64bits of every value, in order.
func hashTimes(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSystemTraceDigests(t *testing.T) {
	redis, err := RedisServiceTimes()
	if err != nil {
		t.Fatal(err)
	}
	lucene, err := LuceneServiceTimes()
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, got, want string
	}{
		{"RedisServiceTimes", hashTimes(redis), redisTimesDigest},
		{"LuceneServiceTimes", hashTimes(lucene), luceneTimesDigest},
		{"Figure 9", hashTable(fig9), figure9Digest},
	} {
		if c.got != c.want {
			t.Errorf("%s digest = %s, want %s", c.name, c.got, c.want)
		}
	}
}
