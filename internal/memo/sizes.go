package memo

import (
	"unsafe"

	"orca/internal/props"
)

// Real size accounting for the Memo's building blocks, replacing the old
// flat per-insert constants so Config.MemoryBudget tracks actual Memo
// growth. The numbers are the in-memory struct sizes plus the per-entry
// overhead of the containers that hold them; Go's maps and slices have
// unexported internals, so container overhead is approximated with the
// documented bucket/header costs rather than guessed magic numbers.
const (
	// mapEntryOverheadBytes approximates one map entry's share of bucket
	// memory beyond key+value (tophash, overflow pointers, load factor
	// headroom).
	mapEntryOverheadBytes = 16
	// sliceSlotBytes is one pointer-sized slot in a container slice.
	sliceSlotBytes = int64(unsafe.Sizeof(uintptr(0)))
)

// exprSizeBytes is the accounted size of one group expression: the struct,
// its retained child-group slice, its slot in the owning group's expression
// slice, and its registry bucket slot (fresh-group namespace) or dedup probe
// residue (target namespace) — one pointer either way.
func exprSizeBytes(children int) int64 {
	return int64(unsafe.Sizeof(GroupExpr{})) +
		int64(children)*int64(unsafe.Sizeof(GroupID(0))) +
		2*sliceSlotBytes
}

// groupSizeBytes is the accounted size of one group: the struct plus its
// slot in the group index.
func groupSizeBytes() int64 {
	return int64(unsafe.Sizeof(Group{})) + sliceSlotBytes
}

// optCtxSizeBytes is the accounted size of one optimization context: the
// struct plus its entry in the group's request table.
func optCtxSizeBytes() int64 {
	return int64(unsafe.Sizeof(OptContext{})) +
		int64(unsafe.Sizeof(ReqID(0))) + sliceSlotBytes + mapEntryOverheadBytes
}

// candidateSizeBytes is the accounted size of one costed candidate in an
// expression's local table, priced as the map of []props.Required candidates
// it replaced, so that memory budgets abort a search at the same points.
func candidateSizeBytes(childReqs int) int64 {
	return int64(unsafe.Sizeof(Candidate{})) +
		int64(childReqs)*int64(unsafe.Sizeof(props.Required{})) +
		mapEntryOverheadBytes
}
