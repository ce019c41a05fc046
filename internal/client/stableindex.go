package client

import "sort"

// stableIndex is the set of stable tuple identities a client has been
// delivered, laid out for the order they arrive in. The proxy emits its
// stable stream in nondecreasing stime, so every in-order key is appended
// to a slice that stays sorted by stime, and only the keys of the current
// stime group need a hashed set. A key older than the current group — rare
// — is looked up by binary search over the slice, then in a small fallback
// map that also holds it if it is new. The set is exact: add reports a
// duplicate if and only if the key was added before.
type stableIndex struct {
	// keys holds every in-order key in arrival order, so in nondecreasing
	// stime; keys[group:] is the current group, all at stime cur.
	keys  []stableID
	group int
	cur   int64
	// inGroup holds the hashes of keys[group:]. It is reused across
	// groups and emptied key by key, so moving to the next group costs
	// the size of the one left, not of the largest group ever seen.
	inGroup map[uint64]struct{}
	// late holds the out-of-order keys (stime < cur when added).
	late map[stableID]struct{}
}

// add inserts k and reports whether it was already in the set.
func (x *stableIndex) add(k stableID) bool {
	switch {
	case len(x.keys) == 0 || k.stime > x.cur:
		if x.inGroup == nil {
			x.inGroup = make(map[uint64]struct{})
		}
		for _, old := range x.keys[x.group:] {
			delete(x.inGroup, old.hash)
		}
		x.group = len(x.keys)
		x.cur = k.stime
	case k.stime < x.cur:
		return x.addLate(k)
	}
	if _, dup := x.inGroup[k.hash]; dup {
		return true
	}
	x.inGroup[k.hash] = struct{}{}
	x.keys = append(x.keys, k)
	return false
}

// addLate inserts a key older than the current group. Every in-order key
// with its stime lies in keys[:group], contiguous because the slice is
// sorted by stime.
func (x *stableIndex) addLate(k stableID) bool {
	i := sort.Search(x.group, func(i int) bool { return x.keys[i].stime >= k.stime })
	for ; i < x.group && x.keys[i].stime == k.stime; i++ {
		if x.keys[i].hash == k.hash {
			return true
		}
	}
	if _, dup := x.late[k]; dup {
		return true
	}
	if x.late == nil {
		x.late = make(map[stableID]struct{})
	}
	x.late[k] = struct{}{}
	return false
}
