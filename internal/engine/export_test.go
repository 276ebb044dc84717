package engine

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// RowDigests hashes every stored row of each table, value by value, keyed
// by table name.
func (c *Cluster) RowDigests() map[string]uint64 {
	out := make(map[string]uint64, len(c.tables))
	for name, t := range c.tables {
		h := fnv.New64a()
		var buf [17]byte
		for _, p := range t.parts {
			for _, seg := range p {
				for _, r := range seg {
					for _, d := range r {
						buf[0] = byte(d.Kind)
						binary.LittleEndian.PutUint64(buf[1:], uint64(d.I))
						binary.LittleEndian.PutUint64(buf[9:], math.Float64bits(d.F))
						h.Write(buf[:])
						h.Write([]byte(d.S))
					}
				}
			}
		}
		out[name] = h.Sum64()
	}
	return out
}
