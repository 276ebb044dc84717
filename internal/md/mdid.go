// Package md implements Orca's metadata exchange layer (paper §5): metadata
// ids (Mdids), the metadata objects the optimizer consumes (types, relations,
// indexes, relation and column statistics), the MD Provider plug-in
// interface, the versioned MD Cache, and the session-scoped MD Accessor that
// pins objects for the duration of one optimization.
//
// The optimizer never talks to a host system directly; it sees metadata only
// through an Accessor, which makes the optimizer portable across backends
// (GPDB, HAWQ, or a plain DXL file) exactly as the paper describes.
package md

import (
	"fmt"
	"strconv"
	"strings"
)

// MDId is a unique metadata identifier composed of a database system id, an
// object id and a version (major.minor), e.g. "0.688.1.1" — cf. paper §4.1.
// Versions invalidate cached metadata objects that were modified between
// queries.
type MDId struct {
	Sys   int32 // database system identifier
	OID   int64 // object identifier within the system
	Major int32 // version major
	Minor int32 // version minor
}

// NewMDId builds an MDId with version 1.0 in system 0 (the default system).
func NewMDId(oid int64) MDId { return MDId{Sys: 0, OID: oid, Major: 1, Minor: 0} }

// IsValid reports whether the id refers to an object (OID 0 is "no id").
func (id MDId) IsValid() bool { return id.OID != 0 }

// String renders the canonical dotted form used in DXL documents.
func (id MDId) String() string {
	var buf [48]byte
	b := strconv.AppendInt(buf[:0], int64(id.Sys), 10)
	b = strconv.AppendInt(append(b, '.'), id.OID, 10)
	b = strconv.AppendInt(append(b, '.'), int64(id.Major), 10)
	b = strconv.AppendInt(append(b, '.'), int64(id.Minor), 10)
	return string(b)
}

// Bumped returns the same object id at the next major version; the cache
// treats differing versions of one OID as distinct, stale entries.
func (id MDId) Bumped() MDId {
	id.Major++
	return id
}

// SameObject reports whether two ids name the same object, at any version.
func (id MDId) SameObject(o MDId) bool { return id.Sys == o.Sys && id.OID == o.OID }

// ParseMDId parses the dotted form. It accepts 2 components ("sys.oid",
// version defaults to 1.0) or the full 4-component form.
func ParseMDId(s string) (MDId, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 2 && len(parts) != 4 {
		return MDId{}, fmt.Errorf("md: malformed mdid %q", s)
	}
	nums := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return MDId{}, fmt.Errorf("md: malformed mdid %q: %v", s, err)
		}
		nums[i] = v
	}
	id := MDId{Sys: int32(nums[0]), OID: nums[1], Major: 1, Minor: 0}
	if len(parts) == 4 {
		id.Major = int32(nums[2])
		id.Minor = int32(nums[3])
	}
	return id, nil
}
