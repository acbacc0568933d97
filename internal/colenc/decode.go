package colenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/bitvec"
)

// reader walks a little-endian stream with bounds checks; every read
// error is sticky and surfaces from finish().
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("colenc: "+format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail("truncated stream at offset %d (want %d bytes, have %d)", r.off, n, len(r.b)-r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) str() string {
	n := r.u32()
	// A length prefix can never exceed the remaining input; checking
	// before allocating keeps hostile inputs from forcing huge copies.
	b := r.take(int(n))
	return string(b)
}

// bitmap reads a length-prefixed word run into n bools.
func (r *reader) bitmap(n int) []bool {
	words := int(r.u32())
	if r.err == nil && words != bitvec.WordsFor(n) {
		r.fail("bitmap has %d words; want %d for %d rows", words, bitvec.WordsFor(n), n)
	}
	v := bitvec.New(n)
	w := v.Words()
	for i := 0; i < words && r.err == nil; i++ {
		word := r.u64()
		if i < len(w) {
			w[i] = word
		}
	}
	if r.err != nil {
		return nil
	}
	v.MaskTail()
	out := make([]bool, n)
	for i := range out {
		out[i] = v.Get(i)
	}
	return out
}

// header holds the decoded schema and metadata blocks.
type header struct {
	name   string
	fields []Field
	meta   [][2]string
}

// readHeader decodes magic, version, schema and metadata.
func (r *reader) readHeader() header {
	if string(r.take(len(Magic))) != Magic {
		r.fail("bad magic (not a columnar stream)")
		return header{}
	}
	if v := r.u32(); r.err == nil && v != Version {
		r.fail("unsupported version %d (want %d)", v, Version)
		return header{}
	}
	h := header{name: r.str()}
	ncols := int(r.u32())
	if r.err == nil && ncols > len(r.b) {
		r.fail("schema declares %d columns for a %d-byte stream", ncols, len(r.b))
		return header{}
	}
	for i := 0; i < ncols && r.err == nil; i++ {
		f := Field{Name: r.str(), Type: Type(r.u8()), Nullable: r.u8() != 0}
		if r.err == nil && f.Type > TypeBool {
			r.fail("column %q: unknown type %d", f.Name, f.Type)
			return header{}
		}
		h.fields = append(h.fields, f)
	}
	npairs := int(r.u32())
	if r.err == nil && npairs > len(r.b) {
		r.fail("metadata declares %d pairs for a %d-byte stream", npairs, len(r.b))
		return header{}
	}
	for i := 0; i < npairs && r.err == nil; i++ {
		h.meta = append(h.meta, [2]string{r.str(), r.str()})
	}
	return h
}

// readBatch decodes one record batch into cols (appending rows).
func (r *reader) readBatch(fields []Field, cols []Column) int {
	nrows := int(r.u32())
	// Each row costs at least one byte in some buffer; a count beyond
	// the remaining input is malformed.
	if r.err == nil && nrows > 8*(len(r.b)-r.off)+64 {
		r.fail("batch declares %d rows for %d remaining bytes", nrows, len(r.b)-r.off)
		return 0
	}
	for i := range fields {
		if r.err != nil {
			return 0
		}
		c := &cols[i]
		var valid []bool
		if fields[i].Nullable {
			valid = r.bitmap(nrows)
		}
		switch fields[i].Type {
		case TypeInt64:
			for j := 0; j < nrows && r.err == nil; j++ {
				c.Int64s = append(c.Int64s, int64(r.u64()))
			}
		case TypeFloat64:
			for j := 0; j < nrows && r.err == nil; j++ {
				c.Float64s = append(c.Float64s, math.Float64frombits(r.u64()))
			}
		case TypeString:
			nbytes := int(r.u32())
			offs := make([]uint32, 0, nrows+1)
			for j := 0; j <= nrows && r.err == nil; j++ {
				offs = append(offs, r.u32())
			}
			data := r.take(nbytes)
			if r.err != nil {
				return 0
			}
			prev := uint32(0)
			for j := 0; j < nrows; j++ {
				lo, hi := offs[j], offs[j+1]
				if lo != prev || hi < lo || int(hi) > nbytes {
					r.fail("string column %q: bad offsets [%d, %d) at row %d", fields[i].Name, lo, hi, j)
					return 0
				}
				c.Strings = append(c.Strings, string(data[lo:hi]))
				prev = hi
			}
			if r.err == nil && nrows >= 0 && int(offs[nrows]) != nbytes {
				r.fail("string column %q: offsets end at %d; want %d", fields[i].Name, offs[nrows], nbytes)
				return 0
			}
		default: // TypeBool
			c.Bools = append(c.Bools, r.bitmap(nrows)...)
		}
		if fields[i].Nullable {
			c.Valid = append(c.Valid, valid...)
		}
	}
	return nrows
}

// Decode parses one columnar stream, concatenating its record batches
// into a single table. It is strict: framing errors, unknown types and
// inconsistent footers are all rejected.
func Decode(data []byte) (*Table, error) {
	r := &reader{b: data}
	h := r.readHeader()
	if r.err != nil {
		return nil, r.err
	}
	t := &Table{Name: h.name, Meta: h.meta, Cols: make([]Column, len(h.fields))}
	for i, f := range h.fields {
		t.Cols[i].Field = f
		if f.Nullable {
			// Decoded nullable columns always materialize validity, even
			// for zero rows, so decoded tables compare canonically.
			t.Cols[i].Valid = []bool{}
		}
	}
	if _, err := r.frames(func() int { return r.readBatch(h.fields, t.Cols) }); err != nil {
		return nil, err
	}
	return t, nil
}

// frames reads the batch sequence after the header, calling batch once
// per record batch to consume it, then the footer, which must end the
// stream and agree with the batches read.
func (r *reader) frames(batch func() int) (StreamInfo, error) {
	total, batches := 0, 0
	for {
		tag := r.u8()
		if r.err != nil {
			return StreamInfo{}, r.err
		}
		if tag == 0x00 {
			break
		}
		if tag != 0x01 {
			return StreamInfo{}, fmt.Errorf("colenc: unknown chunk tag 0x%02x at offset %d", tag, r.off-1)
		}
		total += batch()
		batches++
		if r.err != nil {
			return StreamInfo{}, r.err
		}
	}
	footRows, footBatches := r.u64(), r.u32()
	if r.err != nil {
		return StreamInfo{}, r.err
	}
	if r.off != len(r.b) {
		return StreamInfo{}, fmt.Errorf("colenc: %d trailing bytes after footer", len(r.b)-r.off)
	}
	if footRows != uint64(total) || int(footBatches) != batches {
		return StreamInfo{}, fmt.Errorf("colenc: footer (%d rows, %d batches) disagrees with stream (%d rows, %d batches)",
			footRows, footBatches, total, batches)
	}
	return StreamInfo{TotalRows: total, BatchCount: batches}, nil
}

// skipBatch steps over one record batch without decoding a value,
// checking only that each column's buffers fit in the stream, and
// returns its row count.
func (r *reader) skipBatch(fields []Field) int {
	nrows := int(r.u32())
	if r.err == nil && nrows > 8*(len(r.b)-r.off)+64 {
		r.fail("batch declares %d rows for %d remaining bytes", nrows, len(r.b)-r.off)
		return 0
	}
	for _, f := range fields {
		if f.Nullable {
			r.skipBitmap(nrows)
		}
		switch f.Type {
		case TypeInt64, TypeFloat64:
			r.take(8 * nrows)
		case TypeString:
			nbytes := int(r.u32())
			r.take(4 * (nrows + 1))
			r.take(nbytes)
		default: // TypeBool
			r.skipBitmap(nrows)
		}
	}
	return nrows
}

// skipBitmap steps over a length-prefixed word run for n rows.
func (r *reader) skipBitmap(n int) {
	words := int(r.u32())
	if r.err == nil && words != bitvec.WordsFor(n) {
		r.fail("bitmap has %d words; want %d for %d rows", words, bitvec.WordsFor(n), n)
	}
	r.take(8 * words)
}

// StreamInfo summarizes a stream's chunking for pagination headers.
type StreamInfo struct {
	// TotalRows is the row count across every batch.
	TotalRows int
	// BatchCount is the number of record batches framed in the stream.
	BatchCount int
}

// Footer returns the row and batch counts the stream's footer records,
// for response headers. Unlike Decode it decodes no value: it walks the
// header and the batch framing, stepping over each column buffer by its
// length, so it rejects a truncated stream, a footer without its 0x00
// marker, and a footer that disagrees with the batches, but not a
// corrupt value inside a well-framed batch.
func Footer(data []byte) (StreamInfo, error) {
	r := &reader{b: data}
	h := r.readHeader()
	if r.err != nil {
		return StreamInfo{}, r.err
	}
	return r.frames(func() int { return r.skipBatch(h.fields) })
}

// PageInfo describes one served page of a columnar stream.
type PageInfo struct {
	// TotalRows and BatchCount describe the full result at the page's
	// batchRows chunking.
	TotalRows  int
	BatchCount int
	// Batch is the served page index; Rows its row count.
	Batch int
	Rows  int
}

// ErrBatchRange is wrapped by Page's error for a page index outside the
// stream: the caller asked for a page that does not exist, as opposed to
// a stream that fails to decode.
var ErrBatchRange = errors.New("out of range")

// Page re-frames one page of a full columnar stream as a standalone
// stream: rows [batch*batchRows, (batch+1)*batchRows) with the original
// schema and metadata. batchRows <= 0 selects DefaultBatchRows. An index
// outside the stream fails with an error wrapping ErrBatchRange.
func Page(data []byte, batch, batchRows int) ([]byte, PageInfo, error) {
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	t, err := Decode(data)
	if err != nil {
		return nil, PageInfo{}, err
	}
	total := t.NumRows()
	count := (total + batchRows - 1) / batchRows
	if count == 0 {
		count = 1
	}
	if batch < 0 || batch >= count {
		return nil, PageInfo{}, fmt.Errorf("colenc: batch %d %w; valid: 0 .. %d", batch, ErrBatchRange, count-1)
	}
	lo := batch * batchRows
	hi := lo + batchRows
	if hi > total {
		hi = total
	}
	page, err := Encode(t.Slice(lo, hi), batchRows)
	if err != nil {
		return nil, PageInfo{}, err
	}
	return page, PageInfo{TotalRows: total, BatchCount: count, Batch: batch, Rows: hi - lo}, nil
}
