package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"biscuit/internal/db"
)

// rowSetDigest is the canonical FNV-1a digest of a query's full result:
// every row is encoded cell by cell (type, integer, string length and
// bytes), the encodings are sorted so row order does not matter, and
// the sorted list is hashed with its length.
func rowSetDigest(rows []db.Row) uint64 {
	enc := make([]string, len(rows))
	var buf []byte
	for i, r := range rows {
		buf = buf[:0]
		buf = binary.AppendUvarint(buf, uint64(len(r)))
		for _, v := range r {
			buf = append(buf, byte(v.T))
			buf = binary.AppendVarint(buf, v.I)
			buf = binary.AppendUvarint(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		}
		enc[i] = string(buf)
	}
	sort.Strings(enc)
	h := fnv.New64a()
	var n [binary.MaxVarintLen64]byte
	h.Write(n[:binary.PutUvarint(n[:], uint64(len(enc)))])
	for _, e := range enc {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(e)))])
		h.Write([]byte(e))
	}
	return h.Sum64()
}

// digests is one run's set of named output digests, in hex.
type digests map[string]string

func (d digests) set(key string, v uint64) { d[key] = fmt.Sprintf("%016x", v) }

//go:embed goldens.json
var goldensJSON []byte

// goldens maps workload → seed → digests recorded for that seed.
func goldens() (map[string]map[string]digests, error) {
	var g map[string]map[string]digests
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

// checkGoldens compares got against the goldens stored for the run's
// workload and seed, recording every mismatch, and prints got so a new
// seed's goldens can be recorded. A seed without goldens is checked
// only by the workload's own cross-checks.
func (b *bench) checkGoldens(got digests) error {
	g, err := goldens()
	if err != nil {
		return err
	}
	js, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b.notes = append(b.notes, fmt.Sprintf("digests %s seed %d: %s", b.name, b.seed, js))
	want, ok := g[b.name][fmt.Sprint(b.seed)]
	if !ok {
		b.notes = append(b.notes, "no goldens for this seed; cross-checks only")
		return nil
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.check(got[k] == want[k], "%s: digest %s = %q, golden %q", b.name, k, got[k], want[k])
	}
	b.check(len(got) == len(want), "%s: %d digests, %d goldens", b.name, len(got), len(want))
	return nil
}
