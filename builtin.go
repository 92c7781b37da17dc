package biscuit

import (
	"fmt"
	"sort"

	"biscuit/internal/core"
	"biscuit/internal/isfs"
	"biscuit/internal/match"
	"biscuit/internal/ports"
)

// BuiltinModule is the name of the module the runtime pre-installs. It
// packages the hardware IPs as built-in tasks (paper §I: "allows
// programmers to seamlessly utilize available hardware IPs ... by
// encapsulating them as built-in tasks").
const BuiltinModule = "builtin.slet"

// ScannerID is the built-in pattern-scan SSDlet: it streams a file
// through the per-channel hardware matcher and reports matches.
const ScannerID = "idScanner"

// ScanMode selects what the scanner emits.
type ScanMode int

// Scanner output modes.
const (
	// ScanCount emits one ScanResult with the total match count.
	ScanCount ScanMode = iota
	// ScanPositions emits one ScanResult carrying every match position.
	ScanPositions
	// ScanChunks emits a Packet per data chunk that contains at least
	// one match — the "filter pages in storage" primitive DB offload
	// builds on.
	ScanChunks
)

// ScanArgs parameterizes the built-in scanner.
type ScanArgs struct {
	File string   // file to scan
	Keys []string // up to 3 keys of up to 16 bytes (hardware limits)
	Mode ScanMode
}

// ScanResult is the scanner's summary output.
type ScanResult struct {
	Matches   int64
	Positions []int64 // set in ScanPositions mode
	Bytes     int64   // bytes scanned
}

// scannerLet implements the built-in scan task.
type scannerLet struct{}

func (scannerLet) Spec() Spec {
	return Spec{Out: []core.SpecType{core.PacketType}}
}

func (scannerLet) Run(c *Context) error {
	args, ok := c.Arg(0).(ScanArgs)
	if !ok {
		return fmt.Errorf("biscuit: scanner needs ScanArgs, got %T", c.Arg(0))
	}
	a, err := match.CompileHW(args.Keys)
	if err != nil {
		return err
	}
	out, err := Out[Packet](c, 0)
	if err != nil {
		return err
	}
	f, err := c.OpenFile(args.File, isfs.ReadOnly)
	if err != nil {
		return err
	}

	res := ScanResult{Bytes: f.Size()}
	// Each channel's matcher IP sees only its own pages, and chunks
	// arrive in channel-completion order, so each chunk is scanned
	// independently; matches that straddle a chunk boundary are found by
	// a firmware "seam pass" that re-scans the stitched tail+head bytes
	// (at most MaxKeyLen-1 on each side) afterwards.
	type edge struct {
		tail []byte // last bytes of the chunk starting at key offset
		head []byte // first bytes of the chunk
		len  int
	}
	edges := make(map[int64]*edge) // keyed by chunk start offset
	var encodeErr error
	portClosed := false
	scan := c.ScanFile(f, 0, int(f.Size()), func(off int64, data []byte) {
		s := a.NewStream()
		s.Reset(off)
		inChunk := 0 // a fresh stream emits only matches inside data
		s.Feed(data, func(m match.Match) {
			inChunk++
			res.Matches++
			if args.Mode == ScanPositions {
				res.Positions = append(res.Positions, m.Pos)
			}
		})
		keep := match.MaxKeyLen - 1
		if keep > len(data) {
			keep = len(data)
		}
		edges[off] = &edge{
			tail: append([]byte(nil), data[len(data)-keep:]...),
			head: append([]byte(nil), data[:keep]...),
			len:  len(data),
		}
		if args.Mode == ScanChunks && !portClosed && inChunk > 0 {
			pkt, perr := ports.Encode(ChunkHit{Off: off, Len: len(data)})
			if perr != nil {
				encodeErr = perr
				return
			}
			// A closed port means the consumer is gone (teardown);
			// stop emitting hits but let the scan finish its stats.
			portClosed = !out.Put(pkt)
		}
	})
	if scan != nil {
		return scan
	}
	if encodeErr != nil {
		return encodeErr
	}
	// Seam pass: for every chunk boundary, scan tail(prev)+head(next)
	// and count only matches that straddle it (matches fully inside
	// either side were already counted by the per-chunk scans).
	for off, e := range edges {
		boundary := off + int64(e.len)
		next, ok := edges[boundary]
		if !ok {
			continue
		}
		joined := append(append([]byte(nil), e.tail...), next.head...)
		s := a.NewStream()
		s.Reset(boundary - int64(len(e.tail)))
		s.Feed(joined, func(m match.Match) {
			keyLen := int64(len(a.Keys()[m.Key]))
			if m.Pos < boundary && m.Pos+keyLen > boundary {
				res.Matches++
				if args.Mode == ScanPositions {
					res.Positions = append(res.Positions, m.Pos)
				}
			}
		})
	}
	sort.Slice(res.Positions, func(i, j int) bool { return res.Positions[i] < res.Positions[j] })
	pkt, err := ports.Encode(res)
	if err != nil {
		return err
	}
	if !out.Put(pkt) {
		return fmt.Errorf("builtin: scan result dropped: output port closed")
	}
	return nil
}

// ChunkHit identifies a matching chunk emitted in ScanChunks mode.
type ChunkHit struct {
	Off int64
	Len int
}

// builtinImage assembles the pre-installed module.
func builtinImage() *ModuleImage {
	return core.NewModuleImage(BuiltinModule, 48<<10).
		RegisterSSDLet(ScannerID, func() core.SSDlet { return scannerLet{} })
}
