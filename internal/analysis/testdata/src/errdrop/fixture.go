// Package errdropfix seeds violations and legal near-misses for the errdrop
// analyzer.
package errdropfix

import (
	"orca/internal/dxl"
	"orca/internal/gpos"
)

func badDrops(e *gpos.Exception) {
	e.Unwrap()       // want `error result of Exception\.Unwrap is discarded`
	go e.Unwrap()    // want `error result of Exception\.Unwrap is discarded by go statement`
	defer e.Unwrap() // want `error result of Exception\.Unwrap is discarded by defer`
	_ = e.Unwrap()   // want `error result of Exception\.Unwrap is assigned to _`
}

// Raise returns *gpos.Exception, not error, but dropping a freshly
// constructed exception loses the failure all the same.
func badDroppedRaise() {
	gpos.Raise(gpos.CompMemo, "Probe", "constructed and dropped") // want `error result of gpos\.Raise is discarded`
	_ = gpos.Wrap(nil, gpos.CompMemo, "Probe", "dropped")         // want `error result of gpos\.Wrap is assigned to _`
}

func okRaiseReturned() error {
	return gpos.Raise(gpos.CompMemo, "Probe", "propagated")
}

func badTupleDrop(doc string) *dxl.Node {
	n, _ := dxl.ParseXML(doc) // want `error result of dxl\.ParseXML is assigned to _`
	return n
}

func okHandled(e *gpos.Exception, doc string) (*dxl.Node, error) {
	if err := e.Unwrap(); err != nil {
		return nil, err
	}
	n, err := dxl.ParseXML(doc)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// Calls whose results are genuinely consumed stay silent.
func okConsumed(e *gpos.Exception) bool {
	return e.Unwrap() == nil && e.Code != ""
}
