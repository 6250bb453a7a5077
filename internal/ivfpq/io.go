package ivfpq

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/ivf"
	"repro/internal/pq"
	"repro/internal/vecmath"
)

// Binary index serialization. Training a billion-scale index takes hours,
// so production deployments persist it; the format here is versioned,
// little-endian, and self-validating:
//
//	magic "UPIX" | version u32 | dim u32 | nlist u32 | m u32 | ksub u32 |
//	qscale f32 | centroids f32[nlist*dim] | codebooks f32[m*ksub*dsub] |
//	per list: count u64, ids i64[count], codes u8[count*m]

const (
	indexMagic   = "UPIX"
	indexVersion = 1
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

// WriteTo serializes the index. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)

	if _, err := bw.WriteString(indexMagic); err != nil {
		return cw.n, err
	}
	hdr := []uint32{
		indexVersion,
		uint32(ix.Dim),
		uint32(ix.NList()),
		uint32(ix.PQ.M),
		uint32(ix.PQ.KSub),
		math.Float32bits(ix.QScale),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return cw.n, err
		}
	}
	writeF32 := func(vals []float32) error {
		buf := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		_, err := bw.Write(buf)
		return err
	}
	if err := writeF32(ix.Coarse.Centroids.Data); err != nil {
		return cw.n, err
	}
	if err := writeF32(ix.PQ.Codebooks); err != nil {
		return cw.n, err
	}
	for li := range ix.Lists {
		l := &ix.Lists[li]
		if err := binary.Write(bw, binary.LittleEndian, uint64(l.Len())); err != nil {
			return cw.n, err
		}
		for _, id := range l.IDs {
			if err := binary.Write(bw, binary.LittleEndian, uint64(id)); err != nil {
				return cw.n, err
			}
		}
		if _, err := bw.Write(l.Codes); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// Cluster-image serialization: the out-of-core base format served by
// internal/tier. Unlike the full index stream above, the image holds
// only the per-cluster payloads (ids + PQ codes) at offsets computable
// from the header alone, so any cluster range can be pread directly
// without touching the rest of the file; the quantizers stay with the
// in-RAM Index the image was written from. Layout, little-endian:
//
//	magic "UPCI" | version u32 | dim u32 | nlist u32 | m u32 | ksub u32 |
//	qscale f32 | counts u64[nlist] |
//	per cluster: ids i64[count], codes u8[count*m]
const (
	imageMagic   = "UPCI"
	imageVersion = 1
	// imageHeaderBytes is the fixed header before the per-cluster counts.
	imageHeaderBytes = 4 + 6*4
)

// WriteImage serializes ix's cluster payloads as a tier image. The
// quantizers are not included: OpenImage callers pair the image with the
// index (or a stripped clone of it) they wrote it from.
func (ix *Index) WriteImage(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.WriteString(imageMagic); err != nil {
		return cw.n, err
	}
	hdr := []uint32{
		imageVersion,
		uint32(ix.Dim),
		uint32(ix.NList()),
		uint32(ix.PQ.M),
		uint32(ix.PQ.KSub),
		math.Float32bits(ix.QScale),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return cw.n, err
		}
	}
	var scratch [8]byte
	for li := range ix.Lists {
		binary.LittleEndian.PutUint64(scratch[:], uint64(ix.Lists[li].Len()))
		if _, err := bw.Write(scratch[:]); err != nil {
			return cw.n, err
		}
	}
	for li := range ix.Lists {
		l := &ix.Lists[li]
		for _, id := range l.IDs {
			binary.LittleEndian.PutUint64(scratch[:], uint64(id))
			if _, err := bw.Write(scratch[:]); err != nil {
				return cw.n, err
			}
		}
		if _, err := bw.Write(l.Codes); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// Image is an opened cluster image: the header and per-cluster offset
// table in memory, the payloads left on the io.ReaderAt for callers to
// pread in ranges. Safe for concurrent use when the reader is.
type Image struct {
	r    io.ReaderAt
	dim  int
	m    int
	ksub int
	// QScale is the fixed LUT quantization scale the index was written
	// with (the quantized-mode arithmetic contract travels with the
	// payload it applies to).
	QScale float32

	counts []int
	offs   []int64 // cluster c's section starts at offs[c]; offs[nlist] == file size
	ntotal int64
}

// OpenImage validates the header of an image written by WriteImage and
// indexes its cluster offsets. size must be the full byte length of the
// image; a truncated or padded file is rejected here rather than
// surfacing as a short read mid-search.
func OpenImage(r io.ReaderAt, size int64) (*Image, error) {
	if size < imageHeaderBytes {
		return nil, fmt.Errorf("ivfpq: image truncated: %d bytes, need at least %d for the header", size, imageHeaderBytes)
	}
	hdr := make([]byte, imageHeaderBytes)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("ivfpq: reading image header: %w", err)
	}
	if string(hdr[:4]) != imageMagic {
		return nil, fmt.Errorf("ivfpq: bad image magic %q", hdr[:4])
	}
	le := binary.LittleEndian
	if v := le.Uint32(hdr[4:]); v != imageVersion {
		return nil, fmt.Errorf("ivfpq: unsupported image version %d (supported: %d)", v, imageVersion)
	}
	dim, nlist := int(le.Uint32(hdr[8:])), int(le.Uint32(hdr[12:]))
	m, ksub := int(le.Uint32(hdr[16:])), int(le.Uint32(hdr[20:]))
	switch {
	case dim <= 0 || dim > 1<<16:
		return nil, fmt.Errorf("ivfpq: implausible image dim %d", dim)
	case nlist <= 0 || nlist > 1<<24:
		return nil, fmt.Errorf("ivfpq: implausible image nlist %d", nlist)
	case m <= 0 || dim%m != 0:
		return nil, fmt.Errorf("ivfpq: implausible image M %d for dim %d", m, dim)
	case ksub < 2 || ksub > 256:
		return nil, fmt.Errorf("ivfpq: implausible image KSub %d", ksub)
	}
	im := &Image{
		r:      r,
		dim:    dim,
		m:      m,
		ksub:   ksub,
		QScale: math.Float32frombits(le.Uint32(hdr[24:])),
		counts: make([]int, nlist),
		offs:   make([]int64, nlist+1),
	}
	tocBytes := int64(8 * nlist)
	if size < imageHeaderBytes+tocBytes {
		return nil, fmt.Errorf("ivfpq: image truncated: %d bytes, need %d for %d cluster counts", size, imageHeaderBytes+tocBytes, nlist)
	}
	toc := make([]byte, tocBytes)
	if _, err := r.ReadAt(toc, imageHeaderBytes); err != nil {
		return nil, fmt.Errorf("ivfpq: reading image cluster counts: %w", err)
	}
	off := imageHeaderBytes + tocBytes
	for c := 0; c < nlist; c++ {
		count := le.Uint64(toc[8*c:])
		if count > 1<<40 {
			return nil, fmt.Errorf("ivfpq: implausible image cluster %d size %d", c, count)
		}
		im.counts[c] = int(count)
		im.offs[c] = off
		off += int64(count) * int64(8+m)
		im.ntotal += int64(count)
	}
	im.offs[nlist] = off
	if off != size {
		return nil, fmt.Errorf("ivfpq: image payload is %d bytes, header describes %d (truncated or corrupt)", size-imageHeaderBytes-tocBytes, off-imageHeaderBytes-tocBytes)
	}
	return im, nil
}

// NList returns the image's cluster count.
func (im *Image) NList() int { return len(im.counts) }

// M returns the PQ code width in bytes.
func (im *Image) M() int { return im.m }

// NTotal returns the total vector count across clusters.
func (im *Image) NTotal() int64 { return im.ntotal }

// ClusterLen returns cluster c's vector count.
func (im *Image) ClusterLen(c int32) int { return im.counts[c] }

// checkRange validates a [base, base+n) window of cluster c.
func (im *Image) checkRange(c int32, base, n int) error {
	if c < 0 || int(c) >= len(im.counts) {
		return fmt.Errorf("ivfpq: image cluster %d out of range [0, %d)", c, len(im.counts))
	}
	if base < 0 || n < 0 || base+n > im.counts[c] {
		return fmt.Errorf("ivfpq: image cluster %d range [%d, %d) outside its %d entries", c, base, base+n, im.counts[c])
	}
	return nil
}

// ReadIDs preads the ids of cluster c's vectors [base, base+len(dst))
// into dst, decoding through scratch (grown as needed and returned so
// callers can pool it).
func (im *Image) ReadIDs(dst []int64, scratch []byte, c int32, base int) ([]byte, error) {
	n := len(dst)
	if err := im.checkRange(c, base, n); err != nil {
		return scratch, err
	}
	need := 8 * n
	if cap(scratch) < need {
		scratch = make([]byte, need)
	}
	scratch = scratch[:cap(scratch)]
	if _, err := im.r.ReadAt(scratch[:need], im.offs[c]+int64(8*base)); err != nil {
		return scratch, fmt.Errorf("ivfpq: image cluster %d ids [%d, %d): %w", c, base, base+n, err)
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(scratch[8*i:]))
	}
	return scratch, nil
}

// ReadCodes preads the PQ codes of cluster c's vectors
// [base, base+len(dst)/m) directly into dst (len(dst) must be a multiple
// of M) — no intermediate copy, so the cold scan path streams codes
// straight from the device into the kernel's block buffer.
func (im *Image) ReadCodes(dst []uint8, c int32, base int) error {
	n := len(dst) / im.m
	if len(dst)%im.m != 0 {
		return fmt.Errorf("ivfpq: image codes buffer %d bytes is not a multiple of M %d", len(dst), im.m)
	}
	if err := im.checkRange(c, base, n); err != nil {
		return err
	}
	off := im.offs[c] + int64(8*im.counts[c]) + int64(base*im.m)
	if _, err := im.r.ReadAt(dst, off); err != nil {
		return fmt.Errorf("ivfpq: image cluster %d codes [%d, %d): %w", c, base, base+n, err)
	}
	return nil
}

// ReadIndex deserializes an index written by WriteTo.
func ReadIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("ivfpq: reading magic: %w", err)
	}
	if string(magic) != indexMagic {
		return nil, fmt.Errorf("ivfpq: bad magic %q", magic)
	}
	var hdr [6]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("ivfpq: reading header: %w", err)
		}
	}
	if hdr[0] != indexVersion {
		return nil, fmt.Errorf("ivfpq: unsupported version %d", hdr[0])
	}
	dim, nlist, m, ksub := int(hdr[1]), int(hdr[2]), int(hdr[3]), int(hdr[4])
	switch {
	case dim <= 0 || dim > 1<<16:
		return nil, fmt.Errorf("ivfpq: implausible dim %d", dim)
	case nlist <= 0 || nlist > 1<<24:
		return nil, fmt.Errorf("ivfpq: implausible nlist %d", nlist)
	case m <= 0 || dim%m != 0:
		return nil, fmt.Errorf("ivfpq: implausible M %d for dim %d", m, dim)
	case ksub < 2 || ksub > 256:
		return nil, fmt.Errorf("ivfpq: implausible KSub %d", ksub)
	}
	qscale := math.Float32frombits(hdr[5])

	readF32 := func(n int) ([]float32, error) {
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		out := make([]float32, n)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		return out, nil
	}
	cents, err := readF32(nlist * dim)
	if err != nil {
		return nil, fmt.Errorf("ivfpq: reading centroids: %w", err)
	}
	dsub := dim / m
	cbs, err := readF32(m * ksub * dsub)
	if err != nil {
		return nil, fmt.Errorf("ivfpq: reading codebooks: %w", err)
	}

	ix := &Index{
		Dim:    dim,
		Coarse: &ivf.Coarse{Centroids: vecmath.WrapMatrix(cents, nlist, dim)},
		PQ: &pq.Quantizer{
			Dim: dim, M: m, Dsub: dsub, KSub: ksub, Codebooks: cbs,
		},
		Lists:  make([]List, nlist),
		QScale: qscale,
	}
	for li := 0; li < nlist; li++ {
		var count uint64
		if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
			return nil, fmt.Errorf("ivfpq: reading list %d header: %w", li, err)
		}
		if count > 1<<40 {
			return nil, fmt.Errorf("ivfpq: implausible list %d size %d", li, count)
		}
		l := &ix.Lists[li]
		l.IDs = make([]int64, count)
		for i := range l.IDs {
			var v uint64
			if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
				return nil, fmt.Errorf("ivfpq: reading list %d ids: %w", li, err)
			}
			l.IDs[i] = int64(v)
		}
		l.Codes = make([]uint8, int(count)*m)
		if _, err := io.ReadFull(br, l.Codes); err != nil {
			return nil, fmt.Errorf("ivfpq: reading list %d codes: %w", li, err)
		}
		ix.NTotal += int64(count)
	}
	return ix, nil
}
