package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The /v1/fft and /v1/fft2d request decoder. One pass over the body
// parses FFTRequest/FFT2DRequest straight into pooled sample buffers,
// without reflection: encoding/json would scan each value twice and
// build a []Complex only to copy it. It accepts exactly what json.Decoder.Decode accepts into those
// types — keys matched exactly, then by encoding/json's case fold;
// unknown keys skipped after full validation; null leaves a field
// unset; duplicate keys decode into the existing value, so the last
// one wins; ints and floats parsed from the literal by strconv as
// encoding/json does; nesting capped at encoding/json's depth; bytes
// after the first value ignored — with one deliberate tightening:
// every complex sample must be exactly [number, number] and every real
// sample a number. encoding/json would zero-fill [1], drop the third
// element of [1,2,3] and read null as [0,0]; here each is a 400 naming
// the sample. FuzzDecodeFFTRequest and FuzzDecodeFFT2DRequest pin the
// equivalence against encoding/json itself.

// maxNesting is encoding/json's nesting limit: a value nested deeper is
// a syntax error there, so it is one here.
const maxNesting = 10000

// maxBodyPresize bounds the body buffer reserved up front from a
// request's Content-Length. A larger body still reads (up to the cap),
// growing as bytes arrive, so a client cannot make the server reserve
// memory it never sends.
const maxBodyPresize = 1 << 20

// span locates one decoded sample array in a reqBuf's c or r.
type span struct{ off, n int }

// specSpans is one decoded transform of a /v1/fft body, its sample
// arrays still as spans: the sample buffers may move while decoding.
type specSpans struct {
	input, realInverse span // in c
	realInput          span // in r
	inverse, noReorder bool
}

// fft2dSpans is a decoded /v1/fft2d body.
type fft2dSpans struct {
	rows, cols, depth int
	input             span
	inverse           bool
}

// transform is one decoded /v1/fft transform with its samples resolved
// to slices of the request's pooled buffer.
type transform struct {
	input, realInverse []complex128
	realInput          []float64
	inverse, noReorder bool
}

// reqBuf is the pooled state of one /v1/fft or /v1/fft2d request: the
// raw body, every decoded sample and the decoder's scratch. The
// samples of all sample fields sit back to back in c (complex) and r
// (real). A reqBuf is reference counted: the handler holds it while
// decoding, then hands one reference to each worker-pool job that reads
// its samples, and the last release returns it to the pool. The handler
// never releases a reference it has handed over: workerPool.do may
// return on context expiry while its job still runs.
type reqBuf struct {
	body  bytes.Buffer
	c     []complex128
	r     []float64
	specs []specSpans // the transforms array of a /v1/fft body
	stack []byte      // open containers of a value being skipped
	key   []byte      // an unescaped object key
	refs  atomic.Int32
}

var reqBufs = sync.Pool{New: func() any { return new(reqBuf) }}

// getReqBuf returns an empty request buffer holding one reference.
func getReqBuf() *reqBuf {
	b := reqBufs.Get().(*reqBuf)
	b.body.Reset()
	b.c = b.c[:0]
	b.r = b.r[:0]
	// Decoding reuses transforms in place, as encoding/json does, so
	// entries left over from an earlier request must read as zero.
	clear(b.specs[:cap(b.specs)])
	b.specs = b.specs[:0]
	b.refs.Store(1)
	return b
}

// share replaces the caller's single reference with n, one per job
// that will read the samples. Call it before any of those jobs starts.
func (b *reqBuf) share(n int) { b.refs.Store(int32(n)) }

// maxPooledBytes bounds the buffers the request and response pools
// keep: one outsized request must not pin its memory for every small
// request after it.
const maxPooledBytes = 8 << 20

// release drops one reference; the last returns b to the pool, unless
// it grew past maxPooledBytes.
func (b *reqBuf) release() {
	if b.refs.Add(-1) == 0 && b.body.Cap()+16*cap(b.c)+8*cap(b.r) <= maxPooledBytes {
		reqBufs.Put(b)
	}
}

func (b *reqBuf) complexes(s span) []complex128 { return b.c[s.off : s.off+s.n : s.off+s.n] }
func (b *reqBuf) reals(s span) []float64        { return b.r[s.off : s.off+s.n : s.off+s.n] }

// transform resolves one decoded transform's sample spans.
func (b *reqBuf) transform(s specSpans) transform {
	return transform{
		input:       b.complexes(s.input),
		realInverse: b.complexes(s.realInverse),
		realInput:   b.reals(s.realInput),
		inverse:     s.inverse,
		noReorder:   s.noReorder,
	}
}

// readBody reads r's whole body, capped at limit bytes, into dst. A
// body over the cap is a 413, any other read failure a 400.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, dst *bytes.Buffer) error {
	if n := r.ContentLength; n > 0 && n <= limit {
		// MinRead more, so the read that sees EOF does not regrow.
		dst.Grow(int(min(n, maxBodyPresize)) + bytes.MinRead)
	}
	if _, err := dst.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return bodyError(err)
	}
	return nil
}

// bodyError maps a body read or decode failure onto its response: 413
// when the body ran past its cap, 400 otherwise.
func bodyError(err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &statusError{
			status: http.StatusRequestEntityTooLarge,
			msg:    fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
		}
	}
	return badRequest("decode: %v", err)
}

// readFFT reads and decodes a /v1/fft body. On success the caller owns
// the returned buffer's reference; on failure it has been released.
func (s *Server) readFFT(w http.ResponseWriter, r *http.Request) (*reqBuf, specSpans, error) {
	b := getReqBuf()
	if err := readBody(w, r, s.maxBodyBytes(), &b.body); err != nil {
		b.release()
		return nil, specSpans{}, err
	}
	top, err := decodeFFT(b, b.body.Bytes())
	if err != nil {
		b.release()
		return nil, specSpans{}, badRequest("decode: %v", err)
	}
	return b, top, nil
}

// readFFT2D reads and decodes a /v1/fft2d body, with readFFT's
// ownership rules.
func (s *Server) readFFT2D(w http.ResponseWriter, r *http.Request) (*reqBuf, fft2dSpans, error) {
	b := getReqBuf()
	if err := readBody(w, r, s.maxBodyBytes(), &b.body); err != nil {
		b.release()
		return nil, fft2dSpans{}, err
	}
	req, err := decodeFFT2D(b, b.body.Bytes())
	if err != nil {
		b.release()
		return nil, fft2dSpans{}, badRequest("decode: %v", err)
	}
	return b, req, nil
}

// DecodeFFTBody runs the /v1/fft decoder over body, exactly as the
// handler does once the body is read, and reports how many transforms
// it holds. The per-layer benchmark suites time the decode stage with
// it, without an HTTP round trip.
func DecodeFFTBody(body []byte) (int, error) {
	b := getReqBuf()
	defer b.release()
	if _, err := decodeFFT(b, body); err != nil {
		return 0, err
	}
	return max(len(b.specs), 1), nil
}

// Field indexes of specKeys: TransformSpec's keys, then FFTRequest's
// own.
const (
	fInput = iota
	fRealInput
	fRealInverse
	fInverse
	fNoReorder
	fTransforms
)

var specKeys = []string{"input", "real_input", "real_inverse", "inverse", "no_reorder", "transforms"}

// Field indexes of fft2dKeys.
const (
	fRows = iota
	fCols
	fDepth
	f2DInput
	f2DInverse
)

var fft2dKeys = []string{"rows", "cols", "depth", "input", "inverse"}

// decodeFFT parses a /v1/fft body into b: the transforms array into
// b.specs, the inline transform into the result.
func decodeFFT(b *reqBuf, data []byte) (specSpans, error) {
	d := decoder{b: b, data: data}
	var top specSpans
	if null, err := d.topLevel(); null || err != nil {
		return top, err
	}
	err := d.object(func(key []byte) error {
		f := field(key, specKeys)
		if f == fTransforms {
			return d.transforms()
		}
		return d.specMember(&top, -1, f)
	})
	return top, err
}

// decodeFFT2D parses a /v1/fft2d body, its samples into b.
func decodeFFT2D(b *reqBuf, data []byte) (fft2dSpans, error) {
	d := decoder{b: b, data: data}
	var req fft2dSpans
	if null, err := d.topLevel(); null || err != nil {
		return req, err
	}
	err := d.object(func(key []byte) error {
		switch field(key, fft2dKeys) {
		case fRows:
			return d.integer(&req.rows, "rows")
		case fCols:
			return d.integer(&req.cols, "cols")
		case fDepth:
			return d.integer(&req.depth, "depth")
		case f2DInput:
			return d.complexes(&req.input, -1, "input")
		case f2DInverse:
			return d.boolean(&req.inverse, "inverse")
		}
		return d.skip()
	})
	return req, err
}

// decoder is one pass over a request body.
type decoder struct {
	b     *reqBuf
	data  []byte
	pos   int
	depth int // open containers, as encoding/json's scanner counts them
}

func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 at the end of the body (0
// is never valid where peek's callers look).
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// syntax reports an unexpected byte (or the end of the body) at the
// cursor.
func (d *decoder) syntax(context string) error {
	if d.pos >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", rune(d.data[d.pos]), context, d.pos)
}

// typeErr reports a value of the wrong kind for a known field. A value
// that is not even valid JSON reads as the syntax error it is.
func (d *decoder) typeErr(name, want string) error {
	switch d.peek() {
	case '{', '[', '"', '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 't', 'f', 'n':
		return fmt.Errorf("%s must be %s (offset %d)", name, want, d.pos)
	}
	return d.syntax("looking for beginning of value")
}

// topLevel positions the cursor at the body's first value, which must
// be an object or null (an empty request, as encoding/json decodes it);
// anything else cannot decode into a request.
func (d *decoder) topLevel() (null bool, err error) {
	d.ws()
	if d.peek() == '{' {
		return false, nil
	}
	if d.null() {
		return true, nil
	}
	return false, d.typeErr("request body", "a JSON object")
}

// enter opens a container, failing past encoding/json's depth limit.
func (d *decoder) enter() error {
	d.depth++
	if d.depth > maxNesting {
		return fmt.Errorf("exceeded max depth %d (offset %d)", maxNesting, d.pos)
	}
	return nil
}

// literal consumes lit when the cursor is at it.
func (d *decoder) literal(lit string) bool {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

func (d *decoder) null() bool { return d.literal("null") }

// object parses the object at the cursor, calling member for each key
// with the cursor at the key's value; member must consume the value.
func (d *decoder) object(member func(key []byte) error) error {
	if err := d.enter(); err != nil {
		return err
	}
	d.pos++
	d.ws()
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// key parses an object key and its colon, leaving the cursor at the
// value. The key comes back unescaped; without escapes it aliases the
// body.
func (d *decoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntax("looking for beginning of object key string")
	}
	start := d.pos + 1
	escaped, err := d.str()
	if err != nil {
		return nil, err
	}
	key := d.data[start : d.pos-1]
	if escaped {
		d.b.key = unescape(d.b.key[:0], key)
		key = d.b.key
	}
	d.ws()
	if d.peek() != ':' {
		return nil, d.syntax("after object key")
	}
	d.pos++
	d.ws()
	return key, nil
}

// str validates the string at the cursor and moves past its closing
// quote, reporting whether it holds escapes. Any byte but a control
// character is allowed raw, invalid UTF-8 included, as in encoding/json.
func (d *decoder) str() (escaped bool, err error) {
	d.pos++
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return escaped, nil
		case c == '\\':
			escaped = true
			if d.pos+1 >= len(d.data) {
				d.pos = len(d.data)
				return escaped, d.syntax("")
			}
			switch d.data[d.pos+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos += 2
			case 'u':
				d.pos += 2
				for i := 0; i < 4; i++ {
					if d.pos >= len(d.data) || !isHex(d.data[d.pos]) {
						return escaped, d.syntax("in \\u hexadecimal character escape")
					}
					d.pos++
				}
			default:
				d.pos++
				return escaped, d.syntax("in string escape code")
			}
		case c < 0x20:
			return escaped, d.syntax("in string literal")
		default:
			d.pos++
		}
	}
	return escaped, d.syntax("")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescape appends the contents of a validated string, escapes
// resolved as encoding/json resolves them (a lone or broken surrogate
// becomes U+FFFD), to dst.
func unescape(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c != '\\' {
			dst = append(dst, c)
			i++
			continue
		}
		switch e := s[i+1]; e {
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := hex4(s[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
					r2 = hex4(s[i+2:])
				}
				if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
					r = dec
					i += 6
				} else {
					r = unicode.ReplacementChar
				}
			}
			dst = utf8.AppendRune(dst, r)
			continue
		default: // '"', '\\', '/'
			dst = append(dst, e)
		}
		i += 2
	}
	return dst
}

// field returns the index in keys of the field named by key, or -1:
// an exact match first, then encoding/json's case fold.
func field(key []byte, keys []string) int {
	for i, k := range keys {
		if string(key) == k {
			return i
		}
	}
	for i, k := range keys {
		if foldEqual(key, k) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key folds to the same name as the ASCII
// field name, under encoding/json's foldName: ASCII letters upper-cased,
// every other rune mapped to the smallest rune of its case-fold orbit
// (so "ſ" folds to "S" and the Kelvin sign to "K").
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		f := rune(upperASCII(key[i]))
		if f < utf8.RuneSelf {
			i++
		} else {
			r, n := utf8.DecodeRune(key[i:])
			f = foldRune(r)
			i += n
		}
		if j >= len(name) || f != rune(upperASCII(name[j])) {
			return false
		}
	}
	return j == len(name)
}

func upperASCII(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// foldRune returns the smallest rune of r's case-fold orbit, as
// encoding/json's foldRune does.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// number validates the number literal at the cursor against the JSON
// grammar and returns it.
func (d *decoder) number() ([]byte, bool) {
	start := d.pos
	p := d.pos
	data := d.data
	if p < len(data) && data[p] == '-' {
		p++
	}
	switch {
	case p < len(data) && data[p] == '0':
		p++
	case p < len(data) && '1' <= data[p] && data[p] <= '9':
		p++
		for p < len(data) && '0' <= data[p] && data[p] <= '9' {
			p++
		}
	default:
		return nil, false
	}
	if p < len(data) && data[p] == '.' {
		p++
		if p >= len(data) || data[p] < '0' || data[p] > '9' {
			return nil, false
		}
		for p < len(data) && '0' <= data[p] && data[p] <= '9' {
			p++
		}
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		p++
		if p < len(data) && (data[p] == '+' || data[p] == '-') {
			p++
		}
		if p >= len(data) || data[p] < '0' || data[p] > '9' {
			return nil, false
		}
		for p < len(data) && '0' <= data[p] && data[p] <= '9' {
			p++
		}
	}
	d.pos = p
	return data[start:p], true
}

// float parses the number at the cursor exactly as encoding/json does:
// strconv.ParseFloat on the literal, out-of-range values rejected.
func (d *decoder) float() (float64, error) {
	lit, ok := d.number()
	if !ok {
		return 0, errNotNumber
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s overflows float64", lit)
	}
	return v, nil
}

var errNotNumber = errors.New("not a number")

// integer decodes an int field: an integer literal in int's range, as
// encoding/json requires (no fraction, no exponent); null leaves it.
func (d *decoder) integer(v *int, name string) error {
	if d.null() {
		return nil
	}
	start := d.pos
	lit, ok := d.number()
	if !ok {
		return d.typeErr(name, "an integer")
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("%s: %s is not an integer in range (offset %d)", name, lit, start)
	}
	*v = int(n)
	return nil
}

// boolean decodes a bool field; null leaves it.
func (d *decoder) boolean(v *bool, name string) error {
	switch {
	case d.literal("true"):
		*v = true
	case d.literal("false"):
		*v = false
	case d.null():
	default:
		return d.typeErr(name, "a boolean")
	}
	return nil
}

// fieldName renders a sample field's name for errors: the field, or
// transforms[i].field inside a batch.
func fieldName(idx int, name string) string {
	if idx < 0 {
		return name
	}
	return fmt.Sprintf("transforms[%d].%s", idx, name)
}

// sampleErr reports a malformed sample of a sample array.
func (d *decoder) sampleErr(idx int, name string, i int, want string, err error) error {
	if d.pos >= len(d.data) {
		return d.syntax("")
	}
	if err != nil && err != errNotNumber {
		return fmt.Errorf("%s sample %d: %v", fieldName(idx, name), i, err)
	}
	return fmt.Errorf("%s sample %d is not %s (offset %d)", fieldName(idx, name), i, want, d.pos)
}

// complexes decodes an array of [re, im] pairs onto the end of b.c and
// records where it landed in dst; null clears the field.
func (d *decoder) complexes(dst *span, idx int, name string) error {
	if d.null() {
		*dst = span{}
		return nil
	}
	if d.peek() != '[' {
		return d.typeErr(fieldName(idx, name), "an array of [re, im] pairs")
	}
	if err := d.enter(); err != nil {
		return err
	}
	d.pos++
	d.ws()
	c := d.b.c
	off := len(c)
	if d.peek() != ']' {
		const pair = "a [re, im] pair of numbers"
		for i := 0; ; i++ {
			if d.peek() != '[' {
				return d.sampleErr(idx, name, i, pair, nil)
			}
			// A pair nests one level below its array; known fields sit
			// far above the depth limit, so no check is needed here.
			d.pos++
			d.ws()
			re, err := d.float()
			if err != nil {
				return d.sampleErr(idx, name, i, pair, err)
			}
			d.ws()
			if d.peek() != ',' {
				return d.sampleErr(idx, name, i, pair, nil)
			}
			d.pos++
			d.ws()
			im, err := d.float()
			if err != nil {
				return d.sampleErr(idx, name, i, pair, err)
			}
			d.ws()
			if d.peek() != ']' {
				return d.sampleErr(idx, name, i, pair, nil)
			}
			d.pos++
			c = append(c, complex(re, im))
			d.ws()
			if d.peek() != ',' {
				break
			}
			d.pos++
			d.ws()
		}
		d.b.c = c
		if d.peek() != ']' {
			return d.syntax("after array element")
		}
	}
	d.pos++
	d.depth--
	*dst = span{off, len(c) - off}
	return nil
}

// reals decodes an array of numbers onto the end of b.r and records
// where it landed in dst; null clears the field.
func (d *decoder) reals(dst *span, idx int, name string) error {
	if d.null() {
		*dst = span{}
		return nil
	}
	if d.peek() != '[' {
		return d.typeErr(fieldName(idx, name), "an array of numbers")
	}
	if err := d.enter(); err != nil {
		return err
	}
	d.pos++
	d.ws()
	r := d.b.r
	off := len(r)
	if d.peek() != ']' {
		for i := 0; ; i++ {
			v, err := d.float()
			if err != nil {
				return d.sampleErr(idx, name, i, "a number", err)
			}
			r = append(r, v)
			d.ws()
			if d.peek() != ',' {
				break
			}
			d.pos++
			d.ws()
		}
		d.b.r = r
		if d.peek() != ']' {
			return d.syntax("after array element")
		}
	}
	d.pos++
	d.depth--
	*dst = span{off, len(r) - off}
	return nil
}

// specMember decodes field f of a transform (idx is its batch index,
// -1 inline); an unknown field's value is skipped.
func (d *decoder) specMember(s *specSpans, idx, f int) error {
	switch f {
	case fInput:
		return d.complexes(&s.input, idx, "input")
	case fRealInput:
		return d.reals(&s.realInput, idx, "real_input")
	case fRealInverse:
		return d.complexes(&s.realInverse, idx, "real_inverse")
	case fInverse:
		return d.boolean(&s.inverse, fieldName(idx, "inverse"))
	case fNoReorder:
		return d.boolean(&s.noReorder, fieldName(idx, "no_reorder"))
	}
	return d.skip()
}

// transforms decodes the transforms array into b.specs the way
// encoding/json decodes into an existing slice: entries are decoded in
// place (an object merges into the entry, null leaves it), the slice
// is cut to the array's length, and null or [] empties it.
func (d *decoder) transforms() error {
	s := d.b.specs
	if d.null() {
		d.b.specs = s[:0:0]
		return nil
	}
	if d.peek() != '[' {
		return d.typeErr("transforms", "an array of transform objects")
	}
	if err := d.enter(); err != nil {
		return err
	}
	d.pos++
	d.ws()
	if d.peek() == ']' {
		d.pos++
		d.depth--
		d.b.specs = s[:0:0]
		return nil
	}
	n := 0
	for {
		i := n
		n++
		if i >= len(s) {
			if i < cap(s) {
				s = s[:i+1]
			} else {
				s = append(s, specSpans{})
			}
		}
		switch {
		case d.null():
		case d.peek() == '{':
			el := &s[i]
			err := d.object(func(key []byte) error {
				return d.specMember(el, i, field(key, specKeys[:fTransforms]))
			})
			if err != nil {
				return err
			}
		default:
			return d.typeErr(fieldName(i, "transform"), "an object")
		}
		d.ws()
		if d.peek() != ',' {
			break
		}
		d.pos++
		d.ws()
	}
	if d.peek() != ']' {
		return d.syntax("after array element")
	}
	d.pos++
	d.depth--
	d.b.specs = s[:n]
	return nil
}

// skip validates and steps over the value at the cursor — an unknown
// key's value — iteratively, so depth costs heap, not stack, and is
// capped where encoding/json caps it.
func (d *decoder) skip() error {
	stack := d.b.stack[:0]
	defer func() { d.b.stack = stack[:0] }()
	for {
		// A value starts at the cursor.
		d.ws()
		switch c := d.peek(); c {
		case '{', '[':
			if err := d.enter(); err != nil {
				return err
			}
			d.pos++
			d.ws()
			end := byte(']')
			if c == '{' {
				end = '}'
			}
			if d.peek() == end {
				d.pos++
				d.depth--
				break
			}
			stack = append(stack, end)
			if c == '{' {
				if err := d.skipKey(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, err := d.str(); err != nil {
				return err
			}
		case 't':
			if !d.literal("true") {
				return d.syntax("in literal true")
			}
		case 'f':
			if !d.literal("false") {
				return d.syntax("in literal false")
			}
		case 'n':
			if !d.literal("null") {
				return d.syntax("in literal null")
			}
		default:
			if _, ok := d.number(); !ok {
				return d.syntax("looking for beginning of value")
			}
		}
		// A value ended: close containers until one continues.
		for {
			if len(stack) == 0 {
				return nil
			}
			d.ws()
			end := stack[len(stack)-1]
			c := d.peek()
			if c == ',' {
				d.pos++
				if end == '}' {
					d.ws()
					if err := d.skipKey(); err != nil {
						return err
					}
				}
				break
			}
			if c != end {
				return d.syntax("after value")
			}
			d.pos++
			d.depth--
			stack = stack[:len(stack)-1]
		}
	}
}

// skipKey validates an object key and its colon.
func (d *decoder) skipKey() error {
	if d.peek() != '"' {
		return d.syntax("looking for beginning of object key string")
	}
	if _, err := d.str(); err != nil {
		return err
	}
	d.ws()
	if d.peek() != ':' {
		return d.syntax("after object key")
	}
	d.pos++
	return nil
}
