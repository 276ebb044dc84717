// Package engine is the host-database substrate: a simulated shared-nothing
// MPP cluster in the mold of paper §2.1 — a master plus N segments, each
// owning a slice of every hash-distributed table, joined by an interconnect
// that the motion operators (Gather, GatherMerge, Redistribute, Broadcast)
// exercise. It executes the physical plans produced by Orca, by the legacy
// Planner baseline and by the rival Hadoop-engine simulators, and reports
// deterministic work counters (tuple operations, network tuples) that stand
// in for wall-clock time at cluster scale.
package engine

import (
	"errors"
	"fmt"
	"sort"

	"orca/internal/base"
	"orca/internal/md"
)

// Row is one tuple. Rows are immutable once stored or emitted: operators
// pass rows on without copying them (a scan of a table's own columns emits
// the stored rows, a filter or motion its input's), so an operator writes
// only into rows it made itself and has not yet emitted.
type Row []base.Datum

// ErrBudget reports that execution exceeded the configured tuple-operation
// budget — the reproduction of the paper's 10000-second query timeout
// (§7.2.2): plans that blow the budget score as timed out.
var ErrBudget = errors.New("engine: execution budget exhausted (timeout)")

// ErrOOM reports that an operator's in-memory state exceeded the per-segment
// memory limit without spill support (the failure mode of §7.3.2: "inability
// of these systems to spill partial results to disk").
var ErrOOM = errors.New("engine: out of memory")

// Table is a stored relation: data per partition per segment.
type Table struct {
	Rel *md.Relation
	// parts[p][s] holds partition p's rows on segment s; unpartitioned
	// tables have a single partition. Replicated tables store the full copy
	// at every segment; singleton tables store everything on segment 0.
	parts [][][]Row
}

// Rows returns the total row count.
func (t *Table) Rows() int {
	n := 0
	for _, p := range t.parts {
		for _, seg := range p {
			n += len(seg)
		}
	}
	if t.Rel.Policy == md.DistReplicated {
		segs := len(t.parts[0])
		if segs > 0 {
			n /= segs
		}
	}
	return n
}

// AllRows returns one logical copy of every stored row (replicated tables
// contribute a single copy), for reference computations in tests and tools.
func (t *Table) AllRows() []Row {
	var out []Row
	for _, p := range t.parts {
		for s, seg := range p {
			out = append(out, seg...)
			if t.Rel.Policy == md.DistReplicated && s == 0 {
				break
			}
		}
	}
	return out
}

// Cluster is the simulated MPP system.
type Cluster struct {
	Segments int
	tables   map[string]*Table
	Provider *md.MemProvider
}

// NewCluster builds a cluster with the given segment count over a metadata
// provider (the catalog).
func NewCluster(segments int, provider *md.MemProvider) *Cluster {
	if segments < 1 {
		segments = 1
	}
	return &Cluster{Segments: segments, tables: make(map[string]*Table), Provider: provider}
}

// CreateTable loads rows into the cluster under the relation's distribution
// policy and partitioning scheme.
func (c *Cluster) CreateTable(rel *md.Relation, rows []Row) error {
	nParts := 1
	if rel.IsPartitioned() {
		nParts = len(rel.Parts)
	}
	t := &Table{Rel: rel, parts: make([][][]Row, nParts)}
	for p := range t.parts {
		t.parts[p] = make([][]Row, c.Segments)
	}
	for _, r := range rows {
		if len(r) != len(rel.Columns) {
			return fmt.Errorf("engine: row width %d != %d columns of %s", len(r), len(rel.Columns), rel.Name)
		}
		p := 0
		if rel.IsPartitioned() {
			p = c.partitionOf(rel, r)
			if p < 0 {
				return fmt.Errorf("engine: row outside partition ranges of %s", rel.Name)
			}
		}
		switch rel.Policy {
		case md.DistReplicated:
			for s := 0; s < c.Segments; s++ {
				t.parts[p][s] = append(t.parts[p][s], r)
			}
		case md.DistSingleton:
			t.parts[p][0] = append(t.parts[p][0], r)
		case md.DistHash:
			s := c.segmentFor(rel, r)
			t.parts[p][s] = append(t.parts[p][s], r)
		default: // DistRandom: deterministic round-robin on row content
			s := int(hashRow(r) % uint64(c.Segments))
			t.parts[p][s] = append(t.parts[p][s], r)
		}
	}
	c.tables[rel.Name] = t
	return nil
}

// Table returns a stored table by name.
func (c *Cluster) Table(name string) (*Table, bool) {
	t, ok := c.tables[name]
	return t, ok
}

// TableNames lists the stored tables.
func (c *Cluster) TableNames() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (c *Cluster) partitionOf(rel *md.Relation, r Row) int {
	v := r[rel.PartCol]
	for i, p := range rel.Parts {
		if p.Contains(v) {
			return i
		}
	}
	return -1
}

func (c *Cluster) segmentFor(rel *md.Relation, r Row) int {
	h := uint64(14695981039346656037)
	for _, ord := range rel.DistCols {
		h = h*31 + r[ord].Hash()
	}
	return int(h % uint64(c.Segments))
}

func hashRow(r Row) uint64 {
	h := uint64(1469598103934665603)
	for _, d := range r {
		h = h*31 + d.Hash()
	}
	return h
}

// hashCols hashes selected columns of a row for redistribution.
func hashCols(r Row, idx []int) uint64 {
	h := uint64(14695981039346656037)
	for _, i := range idx {
		h = h*31 + r[i].Hash()
	}
	return h
}
