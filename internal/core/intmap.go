package core

// intMap is a fixed-capacity open-addressed hash map from non-negative int
// keys (row addresses) to int values (entry slots). It replaces the
// map[int]int row index on the per-ACT hot path: every simulated activation
// performs one lookup here, and Go's generic map pays for hashing
// indirection, bucket pointers, and (under `range`) random iteration that
// this table does not need.
//
// Scheme: power-of-two table at most half full (sized to 2× the fixed entry
// capacity at construction), multiplicative hashing by the 64-bit golden
// ratio, linear probing, and backward-shift deletion (Knuth vol. 3, §6.4,
// Algorithm R) so no tombstones accumulate over long prune/remove streams.
// The index arithmetic stays in uint64 throughout — slices are indexed with
// the hash value directly — so no narrowing conversions are needed.
//
// The table never grows: callers (the counter tables) bound live entries by
// their own capacity, which the TWiCe sizing theorem in turn bounds, so a
// probe can always terminate at an empty slot.
type intMap struct {
	keys []int // key at each slot; -1 marks an empty slot
	vals []int //twicelint:keep value slots are unreadable until their key is reinserted
	// mask is len(keys)-1; len is a power of two ≥ 2×capacity.
	mask uint64 //twicelint:keep geometry, fixed at construction
	n    int
}

// newIntMap builds a map with room for capacity live entries at ≤ 50% load.
func newIntMap(capacity int) *intMap {
	size := 8
	for size < 2*capacity {
		size *= 2
	}
	m := &intMap{
		keys: make([]int, size),
		vals: make([]int, size),
		mask: uint64(size) - 1,
	}
	m.clear()
	return m
}

// slot returns the home slot of a key (Fibonacci multiplicative hashing; the
// multiplier is odd, so the product is a bijection modulo the table size).
func (m *intMap) slot(key int) uint64 {
	return (uint64(key) * 0x9E3779B97F4A7C15) & m.mask
}

// get returns the value stored for key.
//
//twicelint:hotpath row-index lookup on every table Touch
func (m *intMap) get(key int) (int, bool) {
	for i := m.slot(key); ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case key:
			return m.vals[i], true
		case -1:
			return 0, false
		}
	}
}

// put stores val for key, inserting or overwriting. The caller must ensure
// the load bound (live entries ≤ construction capacity) holds.
//
//twicelint:hotpath row-index insert on every table Insert
func (m *intMap) put(key, val int) {
	for i := m.slot(key); ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case -1:
			m.keys[i] = key
			m.vals[i] = val
			m.n++
			return
		case key:
			m.vals[i] = val
			return
		}
	}
}

// del removes key, reporting whether it was present. Deletion shifts the
// following probe-chain entries back over the hole instead of planting a
// tombstone, keeping probe lengths at their insertion-time values no matter
// how many prune cycles have run.
//
//twicelint:hotpath row-index delete on every table prune/evict
func (m *intMap) del(key int) bool {
	i := m.slot(key)
	for {
		switch m.keys[i] {
		case -1:
			return false
		case key:
			goto found
		}
		i = (i + 1) & m.mask
	}
found:
	j := i
	for {
		j = (j + 1) & m.mask
		k := m.keys[j]
		if k == -1 {
			break
		}
		// The entry at j may fill the hole at i only if its home slot does
		// not lie cyclically between i (exclusive) and j: otherwise moving it
		// would put it before its home and break its probe chain.
		if (j-m.slot(k))&m.mask >= (j-i)&m.mask {
			m.keys[i] = k
			m.vals[i] = m.vals[j]
			i = j
		}
	}
	m.keys[i] = -1
	m.n--
	return true
}

// len returns the number of live entries.
func (m *intMap) len() int { return m.n }

// clear removes all entries without releasing storage.
func (m *intMap) clear() {
	for i := range m.keys {
		m.keys[i] = -1
	}
	m.n = 0
}
