package tier

import (
	"fmt"
	"sync"

	"repro/internal/ivfpq"
)

// ClusterSource is where a tier store gets cluster payloads from: an
// out-of-core image file (ImageSource), or in tests the in-RAM slabs of
// an ivfpq.Index. All methods must be safe for concurrent use.
type ClusterSource interface {
	// NumClusters returns the cluster count.
	NumClusters() int
	// M returns the PQ code width in bytes.
	M() int
	// Len returns cluster c's vector count.
	Len(c int32) int
	// NTotal returns the total vector count.
	NTotal() int64
	// ReadInto fills ids and codes with cluster c's vectors
	// [base, base+len(ids)); len(codes) must be len(ids)*M().
	ReadInto(ids []int64, codes []uint8, c int32, base int) error
}

// ImageSource serves a cluster image opened with ivfpq.OpenImage — the
// out-of-core tier. Reads pread the backing io.ReaderAt; nothing is
// resident.
type ImageSource struct {
	img *ivfpq.Image
	// idBuf pools the raw byte scratch id decoding goes through, so
	// concurrent cold scans allocate nothing per read.
	idBuf sync.Pool
}

// NewImageSource wraps an opened cluster image.
func NewImageSource(img *ivfpq.Image) *ImageSource {
	return &ImageSource{img: img, idBuf: sync.Pool{New: func() any { b := []byte(nil); return &b }}}
}

// NumClusters returns the cluster count.
func (s *ImageSource) NumClusters() int { return s.img.NList() }

// M returns the PQ code width in bytes.
func (s *ImageSource) M() int { return s.img.M() }

// Len returns cluster c's vector count.
func (s *ImageSource) Len(c int32) int { return s.img.ClusterLen(c) }

// NTotal returns the total vector count.
func (s *ImageSource) NTotal() int64 { return s.img.NTotal() }

// ReadInto preads the requested range from the image.
func (s *ImageSource) ReadInto(ids []int64, codes []uint8, c int32, base int) error {
	if len(codes) != len(ids)*s.img.M() {
		return fmt.Errorf("tier: cluster %d: %d code bytes for %d ids (M %d)", c, len(codes), len(ids), s.img.M())
	}
	buf := s.idBuf.Get().(*[]byte)
	grown, err := s.img.ReadIDs(ids, *buf, c, base)
	*buf = grown
	s.idBuf.Put(buf)
	if err != nil {
		return err
	}
	return s.img.ReadCodes(codes, c, base)
}
