package md

import (
	"fmt"
	"sync"

	"orca/internal/base"
)

// ColRef is the optimizer's view of one query-level column instance: a
// ColID plus its name, type and (for base-table columns) the relation and
// attribute it came from. Distinct references to the same table column in one
// query (e.g. a self join) get distinct ColRefs, as in DXL's ColId scheme.
type ColRef struct {
	ID       base.ColID
	Name     string
	Type     base.TypeID
	RelMdid  MDId // invalid for computed columns
	Ordinal  int  // ordinal in the relation, -1 for computed columns
	Computed bool
}

// String renders "name(id)" for explains and debugging.
func (c *ColRef) String() string { return fmt.Sprintf("%s(%d)", c.Name, c.ID) }

// ColumnFactory allocates ColRefs for one optimization session. It is safe
// for concurrent use.
type ColumnFactory struct {
	mu   sync.Mutex
	next base.ColID
	refs map[base.ColID]*ColRef
	// chunk is the unused tail of the block new ColRefs are carved from: a
	// query's columns cost one allocation per block, not one each.
	chunk []ColRef
}

// newRef returns the next unused ColRef of the current block, set to r.
// The caller holds f.mu.
func (f *ColumnFactory) newRef(r ColRef) *ColRef {
	if len(f.chunk) == 0 {
		f.chunk = make([]ColRef, 16)
	}
	ref := &f.chunk[0]
	f.chunk = f.chunk[1:]
	*ref = r
	return ref
}

// NewColumnFactory returns a factory allocating ids from 0.
func NewColumnFactory() *ColumnFactory {
	return &ColumnFactory{refs: make(map[base.ColID]*ColRef)}
}

// NewTableColumn allocates a reference to a base-table column.
func (f *ColumnFactory) NewTableColumn(name string, typ base.TypeID, rel MDId, ordinal int) *ColRef {
	f.mu.Lock()
	defer f.mu.Unlock()
	ref := f.newRef(ColRef{ID: f.next, Name: name, Type: typ, RelMdid: rel, Ordinal: ordinal})
	f.refs[ref.ID] = ref
	f.next++
	return ref
}

// NewComputedColumn allocates a reference to a computed (projected or
// aggregated) column.
func (f *ColumnFactory) NewComputedColumn(name string, typ base.TypeID) *ColRef {
	f.mu.Lock()
	defer f.mu.Unlock()
	ref := f.newRef(ColRef{ID: f.next, Name: name, Type: typ, Ordinal: -1, Computed: true})
	f.refs[ref.ID] = ref
	f.next++
	return ref
}

// Register inserts a column reference with an explicit id (used when
// reconstructing a query from DXL, where ids are fixed by the document) and
// advances the allocator past it.
func (f *ColumnFactory) Register(ref *ColRef) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.refs[ref.ID] = ref
	if ref.ID >= f.next {
		f.next = ref.ID + 1
	}
}

// Lookup returns the ColRef for an id, or nil.
func (f *ColumnFactory) Lookup(id base.ColID) *ColRef {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.refs[id]
}

// Name returns the column's name, or "col<id>" when unknown.
func (f *ColumnFactory) Name(id base.ColID) string {
	if ref := f.Lookup(id); ref != nil {
		return ref.Name
	}
	return fmt.Sprintf("col%d", id)
}

// Count returns how many columns have been allocated.
func (f *ColumnFactory) Count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.refs)
}
