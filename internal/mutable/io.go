package mutable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/ivfpq"
)

// Durable form of an updatable index: the write overlay (so restarts lose
// no acknowledged writes even when they have not been compacted yet),
// then the epoch's base index in the ivfpq/io format. The overlay comes
// first because ivfpq.ReadIndex buffers its reader and must therefore be
// the final section of the stream:
//
//	magic "UPMU" | version u32 | epoch u64 | seq u64 | nlist u32 | m u32 |
//	freqs f64[nlist] |
//	ntombs u64, (id i64, seq u64)[ntombs] (sorted by id) |
//	per cluster: count u64, ids i64[count], seqs u64[count],
//	             codes u8[count*m] |
//	base index (ivfpq.Index.WriteTo)
const (
	stateMagic   = "UPMU"
	stateVersion = 1
)

type countingWriter struct {
	w io.Writer
	n int64
}

// Write forwards to the wrapped writer, counting bytes.
func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteTo serializes the current epoch's base index plus the pending
// overlay as one consistent cut: the capture happens under the overlay
// read lock, so a concurrent compaction cannot publish between reading
// the overlay and choosing the base. It implements io.WriterTo.
func (u *UpdatableIndex) WriteTo(w io.Writer) (int64, error) {
	if u.cfg.Tier != nil {
		return 0, fmt.Errorf("mutable: tiered deployments do not support WriteTo: the base already lives in the epoch image file")
	}
	if u.cfg.Schema != nil {
		return 0, fmt.Errorf("mutable: deployments with an attribute schema do not support WriteTo: the state format has no attribute section, so a restore would drop every tag")
	}
	// Freeze a consistent (snapshot, overlay) pair. Slice headers are
	// safe to retain: log entries are append-only, the base immutable.
	u.mu.RLock()
	snap := u.snap.Load()
	seq := u.seq
	m := snap.ix.PQ.M
	logs := make([]clusterLog, len(u.logs))
	for i := range u.logs {
		n := len(u.logs[i].ids)
		logs[i] = clusterLog{
			ids:   u.logs[i].ids[:n:n],
			seqs:  u.logs[i].seqs[:n:n],
			codes: u.logs[i].codes[: n*m : n*m],
		}
	}
	type tomb struct {
		id  int64
		seq uint64
	}
	tombs := make([]tomb, 0, len(u.tombs))
	for id, s := range u.tombs {
		tombs = append(tombs, tomb{id, s})
	}
	u.mu.RUnlock()
	sort.Slice(tombs, func(i, j int) bool { return tombs[i].id < tombs[j].id })

	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.WriteString(stateMagic); err != nil {
		return cw.n, err
	}
	le := binary.LittleEndian
	var scratch [8]byte
	wu32 := func(v uint32) error { le.PutUint32(scratch[:4], v); _, err := bw.Write(scratch[:4]); return err }
	wu64 := func(v uint64) error { le.PutUint64(scratch[:], v); _, err := bw.Write(scratch[:]); return err }

	if err := wu32(stateVersion); err != nil {
		return cw.n, err
	}
	if err := wu64(snap.epoch); err != nil {
		return cw.n, err
	}
	if err := wu64(seq); err != nil {
		return cw.n, err
	}
	if err := wu32(uint32(u.nlist)); err != nil {
		return cw.n, err
	}
	if err := wu32(uint32(m)); err != nil {
		return cw.n, err
	}
	for _, f := range snap.freqs {
		if err := wu64(math.Float64bits(f)); err != nil {
			return cw.n, err
		}
	}
	if err := wu64(uint64(len(tombs))); err != nil {
		return cw.n, err
	}
	for _, t := range tombs {
		if err := wu64(uint64(t.id)); err != nil {
			return cw.n, err
		}
		if err := wu64(t.seq); err != nil {
			return cw.n, err
		}
	}
	for c := range logs {
		lg := &logs[c]
		if err := wu64(uint64(len(lg.ids))); err != nil {
			return cw.n, err
		}
		for _, id := range lg.ids {
			if err := wu64(uint64(id)); err != nil {
				return cw.n, err
			}
		}
		for _, s := range lg.seqs {
			if err := wu64(s); err != nil {
				return cw.n, err
			}
		}
		if _, err := bw.Write(lg.codes); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	// The base index is the final section; its writer buffers internally.
	if _, err := snap.ix.WriteTo(cw); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// Read deserializes a stream written by WriteTo and redeploys it: the
// base index becomes the restored epoch (with the persisted placement
// frequencies) and the overlay resumes exactly where it was, including
// tombstones and uncompacted log entries.
func Read(r io.Reader, cfg Config) (*UpdatableIndex, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("mutable: reading magic: %w", err)
	}
	if string(magic) != stateMagic {
		return nil, fmt.Errorf("mutable: bad magic %q", magic)
	}
	le := binary.LittleEndian
	var scratch [8]byte
	ru32 := func() (uint32, error) {
		_, err := io.ReadFull(br, scratch[:4])
		return le.Uint32(scratch[:4]), err
	}
	ru64 := func() (uint64, error) {
		_, err := io.ReadFull(br, scratch[:])
		return le.Uint64(scratch[:]), err
	}

	version, err := ru32()
	if err != nil {
		return nil, fmt.Errorf("mutable: reading version: %w", err)
	}
	if version != stateVersion {
		return nil, fmt.Errorf("mutable: unsupported version %d", version)
	}
	epoch, err := ru64()
	if err != nil {
		return nil, err
	}
	seq, err := ru64()
	if err != nil {
		return nil, err
	}
	nlistU, err := ru32()
	if err != nil {
		return nil, err
	}
	mU, err := ru32()
	if err != nil {
		return nil, err
	}
	nlist, m := int(nlistU), int(mU)
	if nlist <= 0 || nlist > 1<<24 || m <= 0 || m > 1<<12 {
		return nil, fmt.Errorf("mutable: implausible nlist %d / m %d", nlist, m)
	}

	freqs := make([]float64, nlist)
	for i := range freqs {
		bits, err := ru64()
		if err != nil {
			return nil, fmt.Errorf("mutable: reading freqs: %w", err)
		}
		freqs[i] = math.Float64frombits(bits)
	}

	ntombs, err := ru64()
	if err != nil {
		return nil, err
	}
	if ntombs > 1<<40 {
		return nil, fmt.Errorf("mutable: implausible tombstone count %d", ntombs)
	}
	tombs := make(map[int64]uint64, ntombs)
	for i := uint64(0); i < ntombs; i++ {
		id, err := ru64()
		if err != nil {
			return nil, err
		}
		s, err := ru64()
		if err != nil {
			return nil, err
		}
		tombs[int64(id)] = s
	}

	logs := make([]clusterLog, nlist)
	logCount := 0
	for c := range logs {
		count, err := ru64()
		if err != nil {
			return nil, fmt.Errorf("mutable: reading log %d header: %w", c, err)
		}
		if count > 1<<40 {
			return nil, fmt.Errorf("mutable: implausible log %d size %d", c, count)
		}
		lg := &logs[c]
		lg.ids = make([]int64, count)
		lg.seqs = make([]uint64, count)
		for i := range lg.ids {
			v, err := ru64()
			if err != nil {
				return nil, err
			}
			lg.ids[i] = int64(v)
		}
		for i := range lg.seqs {
			if lg.seqs[i], err = ru64(); err != nil {
				return nil, err
			}
		}
		lg.codes = make([]uint8, int(count)*m)
		if _, err := io.ReadFull(br, lg.codes); err != nil {
			return nil, fmt.Errorf("mutable: reading log %d codes: %w", c, err)
		}
		logCount += int(count)
	}

	ix, err := ivfpq.ReadIndex(br)
	if err != nil {
		return nil, fmt.Errorf("mutable: reading base index: %w", err)
	}
	if ix.NList() != nlist || ix.PQ.M != m {
		return nil, fmt.Errorf("mutable: overlay shape (%d lists, M %d) does not match base (%d lists, M %d)",
			nlist, m, ix.NList(), ix.PQ.M)
	}

	// Restore before any concurrency exists: the compactor starts only
	// after the overlay and epoch number are back in place.
	u, err := newIndex(ix, freqs, cfg)
	if err != nil {
		return nil, err
	}
	u.snap.Load().epoch = epoch
	u.seq = seq
	u.logs = logs
	u.logCount = logCount
	u.tombs = tombs
	latest := make(map[int64]entryRef, logCount)
	for c := range logs {
		lg := &logs[c]
		for i, id := range lg.ids {
			if ref, ok := latest[id]; !ok || lg.seqs[i] > ref.seq {
				latest[id] = entryRef{cluster: int32(c), seq: lg.seqs[i]}
			}
		}
	}
	u.latest = latest
	u.shadow = pendingShadow(latest, tombs)
	u.startCompactor()
	return u, nil
}
