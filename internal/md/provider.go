package md

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Provider is the plug-in interface a backend system registers so the
// optimizer can fetch metadata (paper §5, Figure 9). Implementations exist
// for the simulated MPP engine (a live catalog), for DXL files
// (internal/dxl.FileProvider, used by AMPERe replay and stand-alone runs),
// and for tests.
//
// Providers must be safe for concurrent use: concurrent requests fetch
// metadata through one shared cache.
//
// Lookups take a context: a real backend provider talks to a catalog server
// and must honor cancellation, and the Accessor enforces the session's
// per-lookup timeout (core.Config.MDLookupTimeout) through it so a hung
// provider fails the lookup instead of hanging the whole optimization.
// In-memory providers may ignore the context beyond an initial ctx.Err()
// check.
type Provider interface {
	// GetObject returns the metadata object with the given id. The provider
	// must return the object whose version matches id exactly; a lookup of a
	// stale version fails with ErrNotFound.
	GetObject(ctx context.Context, id MDId) (Object, error)

	// LookupRelation resolves a relation name to its current Mdid.
	LookupRelation(ctx context.Context, name string) (MDId, error)

	// RelationNames lists all relation names, for harvesting and tooling.
	RelationNames() []string
}

// ErrNotFound reports a failed metadata lookup.
type ErrNotFound struct {
	What string
}

// Error implements the error interface.
func (e *ErrNotFound) Error() string { return fmt.Sprintf("md: %s not found", e.What) }

// NotFound builds an ErrNotFound.
func NotFound(format string, args ...any) error {
	return &ErrNotFound{What: fmt.Sprintf(format, args...)}
}

// MemProvider is an in-memory Provider, the registration point used by the
// simulated engine's catalog, by the data generator and by tests. It is also
// the target into which DXL metadata documents are materialized.
type MemProvider struct {
	mu      sync.RWMutex
	objects map[MDId]Object
	byName  map[string]MDId
	nextOID int64
}

// NewMemProvider returns an empty provider. OIDs allocated by AddRelation
// start at 1000 to keep them visually distinct from column ids in dumps.
func NewMemProvider() *MemProvider {
	return &MemProvider{
		objects: make(map[MDId]Object),
		byName:  make(map[string]MDId),
		nextOID: 1000,
	}
}

// AllocOID reserves a fresh object id.
func (p *MemProvider) AllocOID() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextOID++
	return p.nextOID
}

// Put registers (or replaces) a metadata object under its id.
func (p *MemProvider) Put(obj Object) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.objects[obj.ID()] = obj
	if r, ok := obj.(*Relation); ok {
		p.byName[r.Name] = r.Mdid
	}
}

// GetObject implements Provider. The in-memory catalog never blocks, so the
// context is only checked for prior cancellation.
func (p *MemProvider) GetObject(ctx context.Context, id MDId) (Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	obj, ok := p.objects[id]
	if !ok {
		return nil, NotFound("object %s", id)
	}
	return obj, nil
}

// LookupRelation implements Provider.
func (p *MemProvider) LookupRelation(ctx context.Context, name string) (MDId, error) {
	if err := ctx.Err(); err != nil {
		return MDId{}, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	id, ok := p.byName[name]
	if !ok {
		return MDId{}, NotFound("relation %q", name)
	}
	return id, nil
}

// RelationNames implements Provider.
func (p *MemProvider) RelationNames() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	names := make([]string, 0, len(p.byName))
	for n := range p.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Objects returns a snapshot of all registered objects, ordered by id, for
// harvesting into DXL.
func (p *MemProvider) Objects() []Object {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]Object, 0, len(p.objects))
	for _, o := range p.objects {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID(), out[j].ID()
		if a.OID != b.OID {
			return a.OID < b.OID
		}
		return a.Major < b.Major
	})
	return out
}

// BumpRelationVersion re-registers the named relation under a bumped version
// and removes the old version, simulating a DDL/ANALYZE change that must
// invalidate cached metadata (paper §4.1: "metadata versions are used to
// invalidate cached metadata objects").
func (p *MemProvider) BumpRelationVersion(name string) (MDId, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id, ok := p.byName[name]
	if !ok {
		return MDId{}, NotFound("relation %q", name)
	}
	rel, ok := p.objects[id].(*Relation)
	if !ok {
		return MDId{}, NotFound("relation object %s", id)
	}
	clone := *rel
	clone.Mdid = rel.Mdid.Bumped()
	delete(p.objects, id)
	p.objects[clone.Mdid] = &clone
	p.byName[name] = clone.Mdid
	return clone.Mdid, nil
}
