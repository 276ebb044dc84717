package dxl

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"orca/internal/core"
	"orca/internal/md"
	"orca/internal/tpcds"
)

// wireFormatSHA256 is the digest of every document TestWireFormatPinned
// renders. It pins the DXL bytes themselves: attribute order and escaping,
// indentation, number formatting. A change to it is a wire-format change and
// breaks every host and AMPERe dump written against the old bytes.
const wireFormatSHA256 = "f9d2571619fd16309af96060334e9bd5fd1a2510bbca8038e9eb480fe32f3854"

// TestWireFormatPinned hashes the TPC-DS scale-2 catalog document, the 32
// workload queries as DXL, each query's ParseXML→Render round trip, and each
// optimized plan. Tests that compare two renders made by the same code
// cannot see a format change; this one can.
func TestWireFormatPinned(t *testing.T) {
	p := md.NewMemProvider()
	tpcds.BuildCatalog(p, tpcds.Scale{Factor: 2})
	h := sha256.New()
	io.WriteString(h, HarvestAll(p).Render())
	for _, q := range tpcds.Workload() {
		query := bindOn(t, p, q.SQL)
		doc := SerializeQuery(query).Render()
		io.WriteString(h, doc)
		root, err := ParseXML(doc)
		if err != nil {
			t.Fatalf("%s: parse: %v", q.Name, err)
		}
		io.WriteString(h, root.Render())
		res, err := core.Optimize(query, core.DefaultConfig(16))
		if err != nil {
			t.Fatalf("%s: optimize: %v", q.Name, err)
		}
		io.WriteString(h, SerializePlan(res.Plan).Render())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wireFormatSHA256 {
		t.Errorf("DXL wire bytes changed: sha256 %s, want %s", got, wireFormatSHA256)
	}
}
