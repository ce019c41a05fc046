package client

import (
	"math/rand"
	"testing"
)

// checkIndex feeds keys to a stableIndex and to a plain map and fails at
// the first key where their duplicate verdicts differ. It also checks the
// group set holds exactly the current group's hashes.
func checkIndex(t *testing.T, keys []stableID) (dups int) {
	t.Helper()
	var x stableIndex
	ref := make(map[stableID]bool)
	for i, k := range keys {
		got, want := x.add(k), ref[k]
		ref[k] = true
		if got != want {
			t.Fatalf("key %d %+v: index says duplicate=%v, map says %v", i, k, got, want)
		}
		if want {
			dups++
		}
		if n := len(x.keys) - x.group; len(x.inGroup) != n {
			t.Fatalf("key %d: group set holds %d hashes for a group of %d", i, len(x.inGroup), n)
		}
	}
	return dups
}

func TestStableIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var keys []stableID
		stime := int64(0)
		for len(keys) < 20000 {
			// Group sizes swing between thousands of keys and one.
			size := 1
			switch rng.Intn(4) {
			case 0:
				size = 1000 + rng.Intn(3000)
			case 1:
				size = 1 + rng.Intn(8)
			}
			// Small hash ranges make equal-stime collisions likely.
			hashes := uint64(size)
			if rng.Intn(3) == 0 {
				hashes = uint64(1 + rng.Intn(size))
			}
			for i := 0; i < size; i++ {
				keys = append(keys, stableID{stime: stime, hash: rng.Uint64() % hashes})
			}
			stime += 1 + rng.Int63n(3)
			// Out-of-order keys: an earlier stime, sometimes a key
			// already delivered, sometimes a fresh one.
			for n := rng.Intn(4); n > 0 && len(keys) > 0; n-- {
				if rng.Intn(2) == 0 {
					keys = append(keys, keys[rng.Intn(len(keys))])
				} else {
					keys = append(keys, stableID{stime: rng.Int63n(stime), hash: rng.Uint64()})
				}
			}
			// Genuine re-deliveries: a replayed run of recent keys.
			if rng.Intn(5) == 0 {
				from := rng.Intn(len(keys))
				keys = append(keys, keys[from:min(len(keys), from+rng.Intn(500))]...)
			}
		}
		if checkIndex(t, keys) == 0 {
			t.Fatalf("seed %d produced no duplicates to check", seed)
		}
	}
}

func TestStableIndexEdgeCases(t *testing.T) {
	for name, keys := range map[string][]stableID{
		"one long run": {{5, 1}, {5, 2}, {5, 1}, {5, 3}, {5, 2}},
		"late repeat of a late key": {
			{10, 1}, {20, 1}, {15, 7}, {15, 7}, {10, 1}, {10, 2},
		},
		"negative and zero stimes": {{-3, 0}, {0, 0}, {-3, 0}, {-5, 0}, {-5, 0}},
		"group reopened later":     {{1, 4}, {2, 4}, {1, 4}, {3, 4}, {2, 4}},
	} {
		t.Run(name, func(t *testing.T) { checkIndex(t, keys) })
	}
}
