package props

// Internable is a value an Interner can key: a hash consistent with exact
// equality.
type Internable[T any] interface {
	Hash() uint64
	Equal(T) bool
}

// Interner hands out dense ids, 0, 1, 2, ... in first-seen order, to values
// by exact equality: two values share an id exactly when they are Equal,
// never merely hash-equal. The zero value is empty and ready to use; it is
// not safe for concurrent use.
type Interner[T Internable[T]] struct {
	vals []T
	// idx maps a hash to the first id interned with it; next[id] is the
	// next id with the same hash, or -1.
	idx  map[uint64]int32
	next []int32
}

// Intern returns v's id, assigning the next one on first sight.
func (t *Interner[T]) Intern(v T) int32 {
	h := v.Hash()
	if id, ok := t.find(h, v); ok {
		return id
	}
	if t.idx == nil {
		t.idx = make(map[uint64]int32)
	}
	id := int32(len(t.vals))
	first, ok := t.idx[h]
	if !ok {
		first = -1
	}
	t.vals, t.next = append(t.vals, v), append(t.next, first)
	t.idx[h] = id
	return id
}

// Lookup returns v's id without interning it.
func (t *Interner[T]) Lookup(v T) (int32, bool) { return t.find(v.Hash(), v) }

func (t *Interner[T]) find(h uint64, v T) (int32, bool) {
	id, ok := t.idx[h]
	for ; ok && id >= 0; id = t.next[id] {
		if t.vals[id].Equal(v) {
			return id, true
		}
	}
	return 0, false
}

// Value returns the value interned under id; ok is false for an id never
// handed out.
func (t *Interner[T]) Value(id int32) (v T, ok bool) {
	if id < 0 || int(id) >= len(t.vals) {
		return v, false
	}
	return t.vals[id], true
}

// Len returns the number of interned values, which is also the next id.
func (t *Interner[T]) Len() int { return len(t.vals) }
