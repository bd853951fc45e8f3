package pcu

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Buffer accumulates typed data to be sent to one peer during a
// communication phase. All values are encoded little-endian at fixed
// width so a Reader on the receiving side can decode them in order.
//
// A buffer obtained from Ctx.To is valid only until the phase's
// Exchange: on-node delivery hands the bytes to the receiver by
// reference, so Exchange seals the buffer and any later pack call
// panics. Packing for the next phase starts from a fresh To call,
// which returns the same per-peer Buffer, unsealed, over a recycled
// backing array.
type Buffer struct {
	buf    []byte
	sealed bool
	// active marks that To has handed this buffer out in the current
	// phase (it is listed in the Ctx's active-peer table).
	active bool
}

// seal marks the buffer as delivered; further packing panics.
func (b *Buffer) seal() { b.sealed = true }

func (b *Buffer) check() {
	if b.sealed {
		panic("pcu: buffer written after Exchange delivered it; call To again for the next phase")
	}
}

// Len returns the number of encoded bytes.
func (b *Buffer) Len() int { return len(b.buf) }

// Raw returns the encoded bytes; the caller must not mutate them.
func (b *Buffer) Raw() []byte { return b.buf }

// Reset truncates a standalone buffer for reuse, keeping its backing
// array. Buffers obtained from Ctx.To must not be Reset — they are
// recycled by the next To — and the bufdiscipline analyzer flags Reset
// on a delivered phase buffer like any other stale write.
func (b *Buffer) Reset() {
	b.buf = b.buf[:0]
	b.sealed = false
}

// Grow reserves room for n more bytes, so a sender that knows how much
// it is about to pack allocates the array once. It packs nothing and,
// like every pack call, panics on a delivered buffer.
func (b *Buffer) Grow(n int) {
	b.check()
	b.buf = slices.Grow(b.buf, n)
}

// grow extends the buffer by n bytes and returns the region to fill.
func (b *Buffer) grow(n int) []byte {
	b.buf = append(b.buf, make([]byte, n)...)
	return b.buf[len(b.buf)-n:]
}

// Byte appends one byte.
func (b *Buffer) Byte(v byte) {
	b.check()
	b.buf = append(b.buf, v)
}

// Int32 appends a 32-bit integer.
func (b *Buffer) Int32(v int32) {
	b.check()
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(v))
}

// Int64 appends a 64-bit integer.
func (b *Buffer) Int64(v int64) {
	b.check()
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(v))
}

// Float64 appends a 64-bit float.
func (b *Buffer) Float64(v float64) {
	b.check()
	b.buf = binary.LittleEndian.AppendUint64(b.buf, math.Float64bits(v))
}

// SetInt32 overwrites the 32-bit integer packed at byte offset at — a
// length prefix written before the length was known. It panics if the
// four bytes were not packed in this phase.
func (b *Buffer) SetInt32(at int, v int32) {
	b.check()
	if at < 0 || at+4 > len(b.buf) {
		panic(fmt.Sprintf("pcu: SetInt32 at offset %d of a %d-byte buffer", at, len(b.buf)))
	}
	binary.LittleEndian.PutUint32(b.buf[at:], uint32(v))
}

// Bytes appends a length-prefixed byte string.
func (b *Buffer) Bytes(v []byte) {
	b.Int32(int32(len(v)))
	b.buf = append(b.buf, v...)
}

// Int32s appends a length-prefixed slice of 32-bit integers as one
// bulk encode over a pre-grown region. The wire format is identical to
// packing the prefix and each element individually.
func (b *Buffer) Int32s(v []int32) {
	b.Int32(int32(len(v)))
	packInt32s(b.grow(4*len(v)), v)
}

// Int64s appends a length-prefixed slice of 64-bit integers in bulk.
func (b *Buffer) Int64s(v []int64) {
	b.Int32(int32(len(v)))
	packInt64s(b.grow(8*len(v)), v)
}

// Float64s appends a length-prefixed slice of floats in bulk.
func (b *Buffer) Float64s(v []float64) {
	b.Int32(int32(len(v)))
	packFloat64s(b.grow(8*len(v)), v)
}

// Message is one received payload: the sending rank and its data.
type Message struct {
	From int
	Data *Reader
}

// Reader decodes a received payload in the order it was packed.
// Decoding past the end or against the wrong type indicates a protocol
// bug between sender and receiver and panics with a diagnostic.
//
// A Reader handed out by Exchange is pooled: Done on a fully-consumed
// message recycles the Reader and its backing array into the receiving
// rank's free lists. After Done, the Reader and any slice decoded from
// it without copying (BytesNoCopy/BytesVal) are invalid — the bytes
// will be overwritten by a later phase. Copy (Reader.Bytes) anything
// that must outlive the message.
//
// A Reader backing an off-node frame that failed validation carries a
// *CorruptError instead of data; every method — including Empty,
// Remaining and Done — panics with it, so a corrupt message can never
// be silently skipped by a decode loop. Callers that want to recover
// structured corruption check Err first or recover the panic and test
// it with errors.Is(err, ErrCorruptMessage).
type Reader struct {
	data  []byte
	off   int
	fail  *CorruptError
	owner *Ctx // receiving rank's pool; nil for NewReader and corrupt frames
}

// NewReader wraps raw bytes for decoding. Readers made this way are not
// pooled: Done only asserts full consumption.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Reset repoints a standalone Reader at data, reusing the struct so
// sub-message decode loops (one embedded payload per entity) do not
// allocate. Must not be called on a pooled Reader still owned by an
// exchange message.
func (r *Reader) Reset(data []byte) { *r = Reader{data: data} }

// failedReader returns a Reader that surfaces err on any use.
func failedReader(err *CorruptError) *Reader { return &Reader{fail: err} }

// Err returns the frame-validation error carried by this Reader, or nil
// if the payload arrived intact. Checking Err is the non-panicking way
// to observe corruption.
func (r *Reader) Err() error {
	if r.fail == nil {
		return nil
	}
	return r.fail
}

func (r *Reader) check() {
	if r.fail != nil {
		panic(r.fail)
	}
}

// Remaining reports how many bytes are left to decode.
func (r *Reader) Remaining() int {
	r.check()
	return len(r.data) - r.off
}

// Empty reports whether the payload is fully consumed.
func (r *Reader) Empty() bool { return r.Remaining() == 0 }

// Done asserts the payload is fully consumed. Trailing bytes mean the
// sender packed more than the receiver decoded — a protocol bug — and
// panic with a diagnostic. Fixed-format decoders call Done after the
// last decode; variable-length decoders loop on Empty and then call
// Done to release the message.
//
// On a pooled Reader (one returned by Exchange), Done also recycles the
// Reader and its backing array, so steady-state decode is
// allocation-free. Any uncopied slice obtained from BytesNoCopy or
// BytesVal is invalid from this point on.
func (r *Reader) Done() {
	if n := r.Remaining(); n != 0 {
		panic(fmt.Sprintf("pcu: message has %d undecoded trailing bytes", n))
	}
	if c := r.owner; c != nil {
		r.owner = nil
		c.releaseBuf(r.data)
		r.data = nil
		r.off = 0
		c.releaseReader(r)
	}
}

func (r *Reader) need(n int) {
	r.check()
	if n < 0 || r.Remaining() < n {
		panic(fmt.Sprintf("pcu: message underflow: need %d bytes, have %d", n, r.Remaining()))
	}
}

// Byte decodes one byte.
func (r *Reader) Byte() byte {
	r.need(1)
	v := r.data[r.off]
	r.off++
	return v
}

// Int32 decodes a 32-bit integer.
func (r *Reader) Int32() int32 {
	r.need(4)
	v := int32(binary.LittleEndian.Uint32(r.data[r.off:]))
	r.off += 4
	return v
}

// Int64 decodes a 64-bit integer.
func (r *Reader) Int64() int64 {
	r.need(8)
	v := int64(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// Float64 decodes a 64-bit float.
func (r *Reader) Float64() float64 {
	r.need(8)
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// lenPrefix decodes a length prefix and validates it against the bytes
// actually remaining (elemSize bytes per element) BEFORE the caller
// allocates, so a corrupt or hostile prefix yields a bounded diagnostic
// panic instead of a multi-gigabyte allocation.
func (r *Reader) lenPrefix(elemSize int) int {
	n := int(r.Int32())
	if n < 0 {
		panic(fmt.Sprintf("pcu: corrupt length prefix %d", n))
	}
	if need := n * elemSize; need > r.Remaining() {
		panic(fmt.Sprintf("pcu: corrupt length prefix: %d elements (%d bytes) but only %d bytes remain",
			n, need, r.Remaining()))
	}
	return n
}

// Bytes decodes a length-prefixed byte string into a fresh copy that
// remains valid after Done. Use BytesNoCopy when the bytes are consumed
// before the message is released.
func (r *Reader) Bytes() []byte {
	return append([]byte(nil), r.BytesNoCopy()...)
}

// BytesNoCopy decodes a length-prefixed byte string without copying.
// The returned slice aliases the message buffer: it must not be
// mutated and is invalid after Done recycles the message.
func (r *Reader) BytesNoCopy() []byte {
	n := r.lenPrefix(1)
	v := r.data[r.off : r.off+n]
	r.off += n
	return v
}

// BytesVal is the historical name of BytesNoCopy: the returned slice
// aliases the message buffer, must not be mutated, and is invalid after
// Done.
func (r *Reader) BytesVal() []byte { return r.BytesNoCopy() }

// Int32s decodes a length-prefixed slice of 32-bit integers in bulk.
func (r *Reader) Int32s() []int32 {
	n := r.lenPrefix(4)
	return r.bulkInt32s(make([]int32, 0, n), n)
}

// AppendInt32s decodes a length-prefixed slice of 32-bit integers,
// appending to dst so a caller-owned scratch slice can absorb the
// decode without allocating.
func (r *Reader) AppendInt32s(dst []int32) []int32 {
	n := r.lenPrefix(4)
	return r.bulkInt32s(dst, n)
}

func (r *Reader) bulkInt32s(dst []int32, n int) []int32 {
	src := r.data[r.off : r.off+4*n]
	r.off += 4 * n
	m := len(dst)
	dst = append(dst, make([]int32, n)...)
	unpackInt32s(dst[m:], src)
	return dst
}

// Int64s decodes a length-prefixed slice of 64-bit integers in bulk.
func (r *Reader) Int64s() []int64 {
	n := r.lenPrefix(8)
	return r.bulkInt64s(make([]int64, 0, n), n)
}

// AppendInt64s decodes a length-prefixed slice of 64-bit integers,
// appending to dst.
func (r *Reader) AppendInt64s(dst []int64) []int64 {
	n := r.lenPrefix(8)
	return r.bulkInt64s(dst, n)
}

func (r *Reader) bulkInt64s(dst []int64, n int) []int64 {
	src := r.data[r.off : r.off+8*n]
	r.off += 8 * n
	m := len(dst)
	dst = append(dst, make([]int64, n)...)
	unpackInt64s(dst[m:], src)
	return dst
}

// Float64s decodes a length-prefixed slice of floats in bulk.
func (r *Reader) Float64s() []float64 {
	n := r.lenPrefix(8)
	return r.bulkFloat64s(make([]float64, 0, n), n)
}

// AppendFloat64s decodes a length-prefixed slice of floats, appending
// to dst.
func (r *Reader) AppendFloat64s(dst []float64) []float64 {
	n := r.lenPrefix(8)
	return r.bulkFloat64s(dst, n)
}

func (r *Reader) bulkFloat64s(dst []float64, n int) []float64 {
	src := r.data[r.off : r.off+8*n]
	r.off += 8 * n
	m := len(dst)
	dst = append(dst, make([]float64, n)...)
	unpackFloat64s(dst[m:], src)
	return dst
}
