//certchain:hotpath — the grouping stage folds every ssl.log row of a batch load.

package zeek

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"io"
	"math/bits"
	"runtime"
	"time"

	"certchains/internal/certmodel"
)

// Grouped replay (DESIGN.md §16 has the exactness argument). After decoding
// a block, a worker folds its rows into groups by raw identity — the
// cert_chain_fuids comma list, id.resp_h and id.resp_p as the line carries
// them, which name (Chain, server address, server port) without the join's
// interner or chain cache. The replay resolves and interns per group, and
// only when the caller asks.

// groupSeed hashes identities; a table lives for one block, so any will do.
var groupSeed = maphash.MakeSeed()

// groupTable is a worker's index from identity to the current block's group:
// open addressing, with at least twice as many slots as the block has rows.
type groupTable struct {
	slots []int32 // a group index + 1; 0 is a free slot
}

// group folds blk's valid rows into blk.groups by identity.
func (t *groupTable) group(blk *block) {
	blk.groups, blk.keys = blk.groups[:0], blk.keys[:0]
	if n := 2 * len(blk.rows); len(t.slots) < n {
		t.slots = make([]int32, max(16, 1<<bits.Len(uint(n-1)))) //certchain:coldpath a worker's densest block so far
	} else {
		clear(t.slots)
	}
	for i := range blk.rows {
		row := &blk.rows[i]
		if row.err != nil {
			continue
		}
		row.next = -1
		mark := len(blk.keys)
		v, line := &row.view, blk.line(row)
		blk.keys = appendIdentity(blk.keys, v.fuids.of(line), v.respH.of(line), v.respP)
		t.find(blk, mark).add(blk.rows, int32(i), epochToTime(v.ts), v.established, v.serverName.hi > v.serverName.lo)
	}
}

// find returns the group of the identity at blk.keys[mark:], opening one if
// the table has none; an identity already open is dropped from blk.keys.
func (t *groupTable) find(blk *block, mark int) *ConnGroup {
	key := blk.keys[mark:]
	h := maphash.Bytes(groupSeed, key)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = int32(len(blk.groups)) + 1
			blk.groups = append(blk.groups, ConnGroup{keyLo: mark, keyHi: len(blk.keys), hash: h, blk: blk})
			return &blk.groups[len(blk.groups)-1]
		}
		if g := &blk.groups[s-1]; g.hash == h && bytes.Equal(blk.keys[g.keyLo:g.keyHi], key) {
			blk.keys = blk.keys[:mark]
			return g
		}
	}
}

// add folds row i into g: Fold's per-row work, on the worker.
func (g *ConnGroup) add(rows []sslRow, i int32, ts time.Time, established, sni bool) {
	if g.Conns == 0 {
		g.head, g.sni, g.First, g.Last = i, -1, ts, ts
	} else {
		rows[g.tail].next = i
		if ts.Before(g.First) {
			g.First = ts
		}
		if ts.After(g.Last) {
			g.Last = ts
		}
	}
	g.tail = i
	g.Conns++
	if established {
		g.Established++
	}
	if !sni {
		g.NoSNI++
	} else if g.sni < 0 {
		g.sni = i
	}
}

// appendIdentity appends a row's raw identity to dst, each part
// length-delimited so that no two identities share bytes.
func appendIdentity(dst, fuids, respH []byte, port int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(fuids)))
	dst = append(dst, fuids...)
	dst = binary.AppendUvarint(dst, uint64(len(respH)))
	dst = append(dst, respH...)
	return binary.AppendVarint(dst, int64(port))
}

// FastJoinGroups is FastJoin (FastJoinJSON when json is set) grouped for
// aggregation: fn receives, on the calling goroutine, each ssl.log block's
// valid rows grouped by chain and server endpoint — blocks in file order, a
// block's groups in the order of their first rows. A stream error ends the
// join after the groups of the rows before it. The *ConnGroup, and the slice
// its Key returns, are valid until fn returns; the Chain and the strings its
// methods return may be retained.
func FastJoinGroups(json bool, ssl, x509 io.Reader, fn func(*ConnGroup) error) error {
	return groupBlocks(json, ssl, x509, fn, blockSize, runtime.GOMAXPROCS(0))
}

// groupBlocks is FastJoinGroups with its block size and worker count
// explicit, like fastJoinBlocks.
func groupBlocks(json bool, ssl, x509 io.Reader, fn func(*ConnGroup) error, size, workers int) error {
	return joinBlocks(json, ssl, x509, size, workers, true, func(j *fastJoiner, blk *block) error {
		for i := range blk.groups {
			g := &blk.groups[i]
			g.j = j
			if err := fn(g); err != nil {
				return err
			}
		}
		return nil
	})
}

// ConnGroup is the connections of one ssl.log block that share a delivered
// chain and server endpoint, folded in file order by a block worker. The
// counts and ts bounds are fields; what needs the join's interner or chain
// cache is a method that does that work only when called.
type ConnGroup struct {
	Conns       int64 // connections
	Established int64 // connections with a completed handshake
	NoSNI       int64 // connections without a server name
	// First and Last are the earliest and latest ts, compared as
	// time.Time.Before and After compare them.
	First, Last time.Time

	keyLo, keyHi    int // the identity, in the block's keys
	hash            uint64
	head, tail, sni int32 // the first and last row, linked through sslRow.next, and the first with a server name (or -1)
	blk             *block
	j               *fastJoiner
}

// Key returns the group's identity: groups of one pass have equal keys
// exactly when their rows share (Chain, server address, server port).
func (c *ConnGroup) Key() []byte { return c.blk.keys[c.keyLo:c.keyHi] }

// view returns row i of the group's block and the line it was decoded from.
func (c *ConnGroup) view(i int32) (*sslView, []byte) {
	row := &c.blk.rows[i]
	return &row.view, c.blk.line(row)
}

// Chain resolves the group's chain through the join's chain cache. The error
// is the one FastJoin reports for the group's first row.
func (c *ConnGroup) Chain() (certmodel.Chain, error) {
	v, line := c.view(c.head)
	return c.j.chain(line, v)
}

// Server returns the server address, interned, and port.
func (c *ConnGroup) Server() (string, int) {
	v, line := c.view(c.head)
	return c.j.strs.Bytes(v.respH.of(line)), v.respP
}

// SNI returns the group's first non-empty server name, interned, or "".
func (c *ConnGroup) SNI() string {
	if c.sni < 0 {
		return ""
	}
	v, line := c.view(c.sni)
	return c.j.strs.Bytes(v.serverName.of(line))
}

// AddClients adds every row's client address to set, interning only the
// addresses set lacks.
func (c *ConnGroup) AddClients(set map[string]bool) {
	for i := c.head; i >= 0; i = c.blk.rows[i].next {
		v, line := c.view(i)
		if ip := v.origH.of(line); !set[string(ip)] {
			set[c.j.strs.Bytes(ip)] = true
		}
	}
}
