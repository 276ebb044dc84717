package lockcheckfix

// Fixtures for the memoindex rule: a stand-in Memo struct carrying the
// guarded field names (the rule keys on the struct name, so the fixture does
// not need to import internal/memo).

type fpStripeFix struct{ n int }

// Memo mirrors the guarded shape of the real memo.Memo.
type Memo struct {
	groupN     int64
	chunkDir   *int
	stripes    [4]fpStripeFix
	reqStripes [4]fpStripeFix
}

// Allowed accessors: these names own the index's publication protocol.

func (m *Memo) NumGroups() int { return int(m.groupN) }

func (m *Memo) Group(id int) *int { return m.chunkDir }

func (m *Memo) groupSnapshot() int64 { return m.groupN }

func (m *Memo) publishGroup() {
	m.groupN++
}

func (m *Memo) InsertExpr() int { return m.stripes[0].n }

func (m *Memo) Validate() int { return m.stripes[1].n }

func (m *Memo) InternReq() int { return m.reqStripes[0].n }

func (m *Memo) LookupReq() int { return m.reqStripes[1].n }

// Violations: anything else reaching into the guarded fields.

func (m *Memo) badCount() int64 {
	return m.groupN // want `direct access to Memo\.groupN outside its accessors`
}

func (m *Memo) badDirectory() *int {
	return m.chunkDir // want `direct access to Memo\.chunkDir outside its accessors`
}

func badStripeSteal(m *Memo) int {
	return m.stripes[2].n // want `direct access to Memo\.stripes outside its accessors`
}

func badReqSteal(m *Memo) int {
	return m.reqStripes[2].n // want `direct access to Memo\.reqStripes outside its accessors`
}

// Method values are not field accesses and stay legal anywhere.

func okMethodValue(m *Memo) func() int {
	return m.NumGroups
}
