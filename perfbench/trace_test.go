package main

import "testing"

// pathOf runs the blocking-path walk over a parent [0, 100) and the
// given children and returns the time it assigns to each layer.
func pathOf(children ...span) [numLayers]int64 {
	spans := append([]span{{start: 0, end: 100, parent: -1, layer: layerTier}}, children...)
	var acc [numLayers]int64
	newTree(spans).critical(0, &acc)
	return acc
}

func child(start, end int64, parent int32, l layer) span {
	return span{start: start, end: end, parent: parent, layer: l}
}

// Self time subtracts what the span waited on once: overlapping
// children are not subtracted twice, a child ending after the span
// (a loser still running) not at all, and nested spans split the
// time between them. The amounts always add up to the span.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	for _, c := range []struct {
		name     string
		children []span
		want     map[layer]int64
	}{
		{"none", nil, map[layer]int64{layerTier: 100}},
		{"sequential", []span{child(10, 30, 0, layerBackend), child(30, 90, 0, layerShard)},
			map[layer]int64{layerTier: 20, layerBackend: 20, layerShard: 60}},
		{"overlapping", []span{child(10, 50, 0, layerBackend), child(20, 90, 0, layerShard)},
			map[layer]int64{layerTier: 30, layerShard: 70}},
		{"nested overlap", []span{child(10, 90, 0, layerShard), child(20, 60, 1, layerTransport), child(40, 80, 1, layerFault)},
			map[layer]int64{layerTier: 20, layerShard: 40, layerFault: 40}},
		{"ends after the span", []span{child(10, 40, 0, layerBackend), child(20, 130, 0, layerShard)},
			map[layer]int64{layerTier: 70, layerBackend: 30}},
		{"all together", []span{child(0, 5, 0, layerLoadgen), child(10, 50, 0, layerBackend), child(20, 90, 0, layerShard),
			child(30, 80, 3, layerTransport), child(95, 140, 0, layerBackend)},
			map[layer]int64{layerTier: 25, layerLoadgen: 5, layerShard: 20, layerTransport: 50}},
	} {
		acc := pathOf(c.children...)
		var sum int64
		for l := layer(0); l < numLayers; l++ {
			sum += acc[l]
			if acc[l] != c.want[l] {
				t.Errorf("%s: %s gets %d, want %d", c.name, l, acc[l], c.want[l])
			}
		}
		if sum != 100 {
			t.Errorf("%s: the path sums to %d, want the span's 100", c.name, sum)
		}
	}
}
