package main

// expected.go reads and regenerates the checked-in references under
// expected/: digests of the generated data and of the rows each fixed TPC-DS
// query must return, and the list of templates known to return wrong rows.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

type queryDigest struct {
	rowsDigest
	// Source is "planner" when the legacy Planner's plan produced the rows,
	// "orca-seed" for the queries whose Planner plan blows the execution
	// budget: those rows come from Orca itself at the commit that added the
	// benchmark and only guard against later change.
	Source string `json:"source"`
}

type knownWrongEntry struct {
	Template string `json:"template"`
	Why      string `json:"why"`
}

// expectedFile is expected/tpcds_rows.json plus expected/known_wrong.json.
type expectedFile struct {
	CatalogScale int                    `json:"catalog_scale"`
	Segments     int                    `json:"segments"`
	DataSeed     uint64                 `json:"data_seed"`
	Tables       map[string]rowsDigest  `json:"tables"`
	Queries      map[string]queryDigest `json:"queries"`

	byText map[string]rowsDigest // squeezed SQL text → rows
	known  map[string]bool
}

func expectedDir(root string) string { return filepath.Join(root, "benchmark", "expected") }

func loadExpected(root string) (*expectedFile, error) {
	e := &expectedFile{byText: map[string]rowsDigest{}, known: map[string]bool{}}
	data, err := os.ReadFile(filepath.Join(expectedDir(root), "tpcds_rows.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, e); err != nil {
		return nil, fmt.Errorf("tpcds_rows.json: %w", err)
	}
	for _, q := range fixedQueries() {
		d, ok := e.Queries[q[0]]
		if !ok {
			return nil, fmt.Errorf("tpcds_rows.json has no rows for %s; run -regen-expected", q[0])
		}
		e.byText[squeeze(q[1])] = d.rowsDigest
	}
	data, err = os.ReadFile(filepath.Join(expectedDir(root), "known_wrong.json"))
	if err != nil {
		return nil, err
	}
	var known []knownWrongEntry
	if err := json.Unmarshal(data, &known); err != nil {
		return nil, fmt.Errorf("known_wrong.json: %w", err)
	}
	for _, k := range known {
		e.known[k.Template] = true
	}
	return e, nil
}

// checkData fails when the catalog or the data generator no longer
// reproduces the data the query digests were taken on: that is drift in the
// harness's environment, not a wrong plan.
func (e *expectedFile) checkData(w *world) error {
	if e.CatalogScale != catalogScale || e.Segments != segments || e.DataSeed != dataSeed {
		return fmt.Errorf("expected/tpcds_rows.json was taken at scale %d, %d segments, data seed %d; the benchmark now uses %d, %d, %d: run -regen-expected",
			e.CatalogScale, e.Segments, e.DataSeed, catalogScale, segments, dataSeed)
	}
	got := w.tableDigests()
	var names []string
	for name := range e.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != e.Tables[name] {
			return fmt.Errorf("catalog/datagen drift: table %s has %d rows digest %s, expected %d rows digest %s: the plans are not to blame; run -regen-expected after checking why",
				name, got[name].Rows, short(got[name].SHA256), e.Tables[name].Rows, short(e.Tables[name].SHA256))
		}
	}
	if len(got) != len(e.Tables) {
		return fmt.Errorf("catalog drift: %d tables loaded, %d expected", len(got), len(e.Tables))
	}
	return nil
}

func (e *expectedFile) knownWrong(template string) bool { return e.known[template] }

// regenExpected rewrites expected/tpcds_rows.json from the current source.
func regenExpected(root string) error {
	w, err := loadWorld(harvestCatalog())
	if err != nil {
		return err
	}
	e := expectedFile{
		CatalogScale: catalogScale, Segments: segments, DataSeed: dataSeed,
		Tables: w.tableDigests(), Queries: map[string]queryDigest{},
	}
	for _, q := range fixedQueries() {
		orca, err := w.orcaReference(q[1])
		if err != nil {
			return fmt.Errorf("%s: orca: %w", q[0], err)
		}
		d, ok, err := w.plannerReference(q[1])
		if err != nil {
			return fmt.Errorf("%s: planner: %w", q[0], err)
		}
		switch {
		case !ok:
			e.Queries[q[0]] = queryDigest{orca, "orca-seed"}
		case d != orca:
			return fmt.Errorf("%s: the Planner's rows (%d, %s) and Orca's (%d, %s) differ: one plan is wrong, fix that before recording either",
				q[0], d.Rows, short(d.SHA256), orca.Rows, short(orca.SHA256))
		default:
			e.Queries[q[0]] = queryDigest{d, "planner"}
		}
		fmt.Printf("%s %d rows %s %s\n", q[0], e.Queries[q[0]].Rows, short(e.Queries[q[0]].SHA256), e.Queries[q[0]].Source)
	}
	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(expectedDir(root), "tpcds_rows.json"), append(data, '\n'), 0o644)
}
