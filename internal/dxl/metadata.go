package dxl

import (
	"fmt"
	"strconv"
	"strings"

	"orca/internal/base"
	"orca/internal/md"
)

// SerializeMetadata renders metadata objects as a dxl:Metadata element, the
// payload of metadata files and AMPERe dumps (cf. paper Listing 2).
func SerializeMetadata(objects []md.Object) *Node {
	meta := El("Metadata").Set("SystemIds", "0.GPDB")
	for _, obj := range objects {
		switch o := obj.(type) {
		case *md.Type:
			meta.Add(El("Type").
				Set("Mdid", o.Mdid.String()).
				Set("Name", o.Name).
				Set("Base", o.Base.String()).
				Set("IsRedistributable", strconv.FormatBool(o.IsRedistributable)).
				Set("Length", strconv.Itoa(o.Length)))
		case *md.Relation:
			meta.Add(serializeRelation(o))
		case *md.RelStats:
			meta.Add(serializeRelStats(o))
		case *md.Index:
			meta.Add(El("Index").
				Set("Mdid", o.Mdid.String()).
				Set("Name", o.Name).
				Set("RelMdid", o.RelMdid.String()).
				Set("KeyCols", intList(o.KeyCols)).
				Set("IsUnique", strconv.FormatBool(o.IsUnique)))
		}
	}
	return meta
}

func serializeRelation(r *md.Relation) *Node {
	n := El("Relation").
		Set("Mdid", r.Mdid.String()).
		Set("Name", r.Name).
		Set("DistributionPolicy", r.Policy.String())
	if len(r.DistCols) > 0 {
		n.Set("DistributionColumns", intList(r.DistCols))
	}
	if r.StatsMdid.IsValid() {
		n.Set("StatsMdid", r.StatsMdid.String())
	}
	cols := El("Columns")
	for _, c := range r.Columns {
		cols.Add(El("Column").
			Set("Name", c.Name).
			Set("Attno", strconv.Itoa(c.Attno)).
			Set("Type", c.Type.String()).
			Set("Nullable", strconv.FormatBool(c.Nullable)))
	}
	n.Add(cols)
	if r.IsPartitioned() {
		parts := El("Partitions").Set("PartCol", strconv.Itoa(r.PartCol))
		for _, p := range r.Parts {
			parts.Add(El("Partition").
				Set("Name", p.Name).
				Set("Lo", datumString(p.Lo)).
				Set("Hi", datumString(p.Hi)))
		}
		n.Add(parts)
	}
	if len(r.IndexIDs) > 0 {
		ix := El("IndexList")
		for _, id := range r.IndexIDs {
			ix.Add(El("IndexRef").Set("Mdid", id.String()))
		}
		n.Add(ix)
	}
	return n
}

func serializeRelStats(s *md.RelStats) *Node {
	n := El("RelStats").
		Set("Mdid", s.Mdid.String()).
		Set("Name", s.RelName).
		Set("Rows", strconv.FormatFloat(s.Rows, 'g', -1, 64))
	for i := range s.Cols {
		cs := &s.Cols[i]
		cn := El("ColStats").
			Set("Name", cs.ColName).
			Set("Ordinal", strconv.Itoa(cs.Ordinal)).
			Set("NDV", strconv.FormatFloat(cs.NDV, 'g', -1, 64)).
			Set("NullFrac", strconv.FormatFloat(cs.NullFrac, 'g', -1, 64))
		for _, b := range cs.Buckets {
			cn.Add(El("Bucket").
				Set("Lo", datumString(b.Lo)).
				Set("Hi", datumString(b.Hi)).
				Set("Rows", strconv.FormatFloat(b.Rows, 'g', -1, 64)).
				Set("Distincts", strconv.FormatFloat(b.Distincts, 'g', -1, 64)))
		}
		n.Add(cn)
	}
	return n
}

// ParseMetadata materializes a dxl:Metadata element into a provider.
func ParseMetadata(meta *Node, p *md.MemProvider) error {
	for _, c := range meta.Children {
		switch c.Name {
		case "Type":
			id, err := md.ParseMDId(c.Attr("Mdid"))
			if err != nil {
				return err
			}
			length, _ := strconv.Atoi(c.Attr("Length"))
			p.Put(&md.Type{
				Mdid:              id,
				Name:              c.Attr("Name"),
				Base:              parseTypeID(c.Attr("Base")),
				IsRedistributable: c.Attr("IsRedistributable") == "true",
				Length:            length,
			})
		case "Relation":
			rel, err := parseRelation(c)
			if err != nil {
				return err
			}
			p.Put(rel)
		case "RelStats":
			rs, err := parseRelStats(c)
			if err != nil {
				return err
			}
			p.Put(rs)
		case "Index":
			id, err := md.ParseMDId(c.Attr("Mdid"))
			if err != nil {
				return err
			}
			relID, err := md.ParseMDId(c.Attr("RelMdid"))
			if err != nil {
				return err
			}
			keyCols, err := parseIntList(c.Attr("KeyCols"))
			if err != nil {
				return err
			}
			p.Put(&md.Index{
				Mdid:     id,
				Name:     c.Attr("Name"),
				RelMdid:  relID,
				KeyCols:  keyCols,
				IsUnique: c.Attr("IsUnique") == "true",
			})
		}
	}
	return nil
}

func parseRelation(n *Node) (*md.Relation, error) {
	id, err := md.ParseMDId(n.Attr("Mdid"))
	if err != nil {
		return nil, err
	}
	rel := &md.Relation{Mdid: id, Name: n.Attr("Name"), PartCol: -1}
	switch n.Attr("DistributionPolicy") {
	case "Hash":
		rel.Policy = md.DistHash
	case "Replicated":
		rel.Policy = md.DistReplicated
	case "Singleton":
		rel.Policy = md.DistSingleton
	default:
		rel.Policy = md.DistRandom
	}
	if dc := n.Attr("DistributionColumns"); dc != "" {
		cols, err := parseIntList(dc)
		if err != nil {
			return nil, err
		}
		rel.DistCols = cols
	}
	if sm := n.Attr("StatsMdid"); sm != "" {
		sid, err := md.ParseMDId(sm)
		if err != nil {
			return nil, err
		}
		rel.StatsMdid = sid
	}
	if cols := n.Child("Columns"); cols != nil {
		for _, cn := range cols.ChildrenNamed("Column") {
			attno, _ := strconv.Atoi(cn.Attr("Attno"))
			rel.Columns = append(rel.Columns, md.Column{
				Name:     cn.Attr("Name"),
				Attno:    attno,
				Type:     parseTypeID(cn.Attr("Type")),
				Nullable: cn.Attr("Nullable") == "true",
			})
		}
	}
	if parts := n.Child("Partitions"); parts != nil {
		pc, _ := strconv.Atoi(parts.Attr("PartCol"))
		rel.PartCol = pc
		for _, pn := range parts.ChildrenNamed("Partition") {
			lo, err := parseDatum(pn.Attr("Lo"))
			if err != nil {
				return nil, err
			}
			hi, err := parseDatum(pn.Attr("Hi"))
			if err != nil {
				return nil, err
			}
			rel.Parts = append(rel.Parts, md.Partition{Name: pn.Attr("Name"), Lo: lo, Hi: hi})
		}
	}
	if ix := n.Child("IndexList"); ix != nil {
		for _, in := range ix.ChildrenNamed("IndexRef") {
			iid, err := md.ParseMDId(in.Attr("Mdid"))
			if err != nil {
				return nil, err
			}
			rel.IndexIDs = append(rel.IndexIDs, iid)
		}
	}
	return rel, nil
}

func parseRelStats(n *Node) (*md.RelStats, error) {
	id, err := md.ParseMDId(n.Attr("Mdid"))
	if err != nil {
		return nil, err
	}
	rows, err := strconv.ParseFloat(n.Attr("Rows"), 64)
	if err != nil {
		return nil, fmt.Errorf("dxl: bad Rows in RelStats: %v", err)
	}
	rs := &md.RelStats{Mdid: id, RelName: n.Attr("Name"), Rows: rows}
	for _, cn := range n.ChildrenNamed("ColStats") {
		ord, _ := strconv.Atoi(cn.Attr("Ordinal"))
		ndv, _ := strconv.ParseFloat(cn.Attr("NDV"), 64)
		nf, _ := strconv.ParseFloat(cn.Attr("NullFrac"), 64)
		cs := md.ColStats{ColName: cn.Attr("Name"), Ordinal: ord, NDV: ndv, NullFrac: nf}
		for _, bn := range cn.ChildrenNamed("Bucket") {
			lo, err := parseDatum(bn.Attr("Lo"))
			if err != nil {
				return nil, err
			}
			hi, err := parseDatum(bn.Attr("Hi"))
			if err != nil {
				return nil, err
			}
			br, _ := strconv.ParseFloat(bn.Attr("Rows"), 64)
			bd, _ := strconv.ParseFloat(bn.Attr("Distincts"), 64)
			cs.Buckets = append(cs.Buckets, md.Bucket{Lo: lo, Hi: hi, Rows: br, Distincts: bd})
		}
		rs.Cols = append(rs.Cols, cs)
	}
	return rs, nil
}

// ---------------------------------------------------------------------------
// Shared scalar encodings

// intList renders integers, column ids among them, as a comma-separated
// list.
func intList[T ~int | ~int32](v []T) string {
	var buf [64]byte
	b := buf[:0]
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(b)
}

func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("dxl: bad int list %q: %v", s, err)
		}
		out[i] = v
	}
	return out, nil
}

func parseColIDList(s string) ([]base.ColID, error) {
	ints, err := parseIntList(s)
	if err != nil {
		return nil, err
	}
	out := make([]base.ColID, len(ints))
	for i, v := range ints {
		out[i] = base.ColID(v)
	}
	return out, nil
}

// datumString encodes a datum with a type prefix for lossless round-trips.
func datumString(d base.Datum) string {
	var buf [32]byte
	switch d.Kind {
	case base.DNull:
		return "null:"
	case base.DInt:
		return string(strconv.AppendInt(append(buf[:0], "int:"...), d.I, 10))
	case base.DFloat:
		return string(strconv.AppendFloat(append(buf[:0], "float:"...), d.F, 'g', -1, 64))
	case base.DString:
		return string(append(append(buf[:0], "str:"...), d.S...))
	case base.DBool:
		if d.I != 0 {
			return "bool:true"
		}
		return "bool:false"
	default:
		return "null:"
	}
}

func parseDatum(s string) (base.Datum, error) {
	i := strings.Index(s, ":")
	if i < 0 {
		return base.Null, fmt.Errorf("dxl: bad datum %q", s)
	}
	kind, val := s[:i], s[i+1:]
	switch kind {
	case "null":
		return base.Null, nil
	case "int":
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return base.Null, fmt.Errorf("dxl: bad int datum %q", s)
		}
		return base.NewInt(v), nil
	case "float":
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return base.Null, fmt.Errorf("dxl: bad float datum %q", s)
		}
		return base.NewFloat(v), nil
	case "str":
		return base.NewString(val), nil
	case "bool":
		return base.NewBool(val == "true"), nil
	default:
		return base.Null, fmt.Errorf("dxl: unknown datum kind %q", kind)
	}
}

func parseTypeID(s string) base.TypeID {
	switch s {
	case "int":
		return base.TInt
	case "float":
		return base.TFloat
	case "string":
		return base.TString
	case "bool":
		return base.TBool
	case "date":
		return base.TDate
	default:
		return base.TUnknown
	}
}
