package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/vecmath"
)

// The .fvecs / .ivecs formats of the TEXMEX corpora (SIFT1M and kin)
// store, per vector, a little-endian int32 dimension header
// followed by dim elements (float32 or int32 respectively).

// WriteFvecs writes m in fvecs format.
func WriteFvecs(w io.Writer, m *vecmath.Matrix) error {
	bw := bufio.NewWriter(w)
	var hdr [4]byte
	buf := make([]byte, 4*m.Dim)
	for i := 0; i < m.Rows; i++ {
		binary.LittleEndian.PutUint32(hdr[:], uint32(m.Dim))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		row := m.Row(i)
		for d, v := range row {
			binary.LittleEndian.PutUint32(buf[4*d:], math.Float32bits(v))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFvecs reads an entire fvecs stream. maxRows bounds the number of
// vectors read (0 = unlimited).
func ReadFvecs(r io.Reader, maxRows int) (*vecmath.Matrix, error) {
	br := bufio.NewReader(r)
	var rows [][]float32
	dim := -1
	for maxRows == 0 || len(rows) < maxRows {
		d, err := readDim(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if dim == -1 {
			dim = d
		} else if d != dim {
			return nil, fmt.Errorf("dataset: inconsistent fvecs dim %d vs %d", d, dim)
		}
		buf := make([]byte, 4*d)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("dataset: truncated fvecs vector: %w", err)
		}
		row := make([]float32, d)
		for i := range row {
			row[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		rows = append(rows, row)
	}
	return rowsToMatrix(rows, dim)
}

// WriteIvecs writes integer id lists (e.g. ground truth neighbor ids).
func WriteIvecs(w io.Writer, lists [][]int32) error {
	bw := bufio.NewWriter(w)
	var hdr [4]byte
	for _, list := range lists {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(list)))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		buf := make([]byte, 4*len(list))
		for i, v := range list {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func readDim(br *bufio.Reader) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("dataset: truncated header")
		}
		return 0, err
	}
	d := int(int32(binary.LittleEndian.Uint32(hdr[:])))
	if d <= 0 || d > 1<<20 {
		return 0, fmt.Errorf("dataset: implausible vector dim %d", d)
	}
	return d, nil
}

func rowsToMatrix(rows [][]float32, dim int) (*vecmath.Matrix, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: empty vector file")
	}
	m := vecmath.NewMatrix(len(rows), dim)
	for i, row := range rows {
		m.SetRow(i, row)
	}
	return m, nil
}
