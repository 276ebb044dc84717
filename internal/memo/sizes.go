package memo

// The Memo's memory accounting: what Config.MemoryBudget charges for each
// building block. The prices are a fixed table, not the blocks' current
// layouts, so a change of layout never moves the point where a budget
// aborts a search. They are the struct sizes at the time the table was
// fixed plus the per-entry overhead of the containers that held them; Go's
// maps and slices have unexported internals, so container overhead is
// approximated with the documented bucket/header costs.
const (
	groupExprBytes  = 96  // GroupExpr
	groupBytes      = 88  // Group
	optContextBytes = 216 // OptContext
	candidateBytes  = 112 // Candidate, as a local-table entry
	requiredBytes   = 72  // props.Required
	idBytes         = 4   // GroupID, ReqID
	// mapEntryOverheadBytes approximates one map entry's share of bucket
	// memory beyond key+value (tophash, overflow pointers, load factor
	// headroom).
	mapEntryOverheadBytes = 16
	// sliceSlotBytes is one pointer-sized slot in a container slice.
	sliceSlotBytes = 8
)

// exprSizeBytes is the accounted size of one group expression: the struct,
// its retained child-group slice, its slot in the owning group's expression
// slice, and its registry bucket slot (fresh-group namespace) or dedup probe
// residue (target namespace) — one pointer either way.
func exprSizeBytes(children int) int64 {
	return groupExprBytes + int64(children)*idBytes + 2*sliceSlotBytes
}

// groupSizeBytes is the accounted size of one group: the struct plus its
// slot in the group index.
func groupSizeBytes() int64 { return groupBytes + sliceSlotBytes }

// optCtxSizeBytes is the accounted size of one optimization context: the
// struct plus its entry in the group's request table.
func optCtxSizeBytes() int64 {
	return optContextBytes + idBytes + sliceSlotBytes + mapEntryOverheadBytes
}

// candidateSizeBytes is the accounted size of one costed candidate in an
// expression's local table, priced as the map of []props.Required candidates
// it replaced, so that memory budgets abort a search at the same points.
func candidateSizeBytes(childReqs int) int64 {
	return candidateBytes + int64(childReqs)*requiredBytes + mapEntryOverheadBytes
}
