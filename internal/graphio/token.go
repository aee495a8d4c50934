package graphio

// The tokenizer and the encoder under the snapshot format: lines of
// whitespace-separated fields, most of them decimal integers. The reader splits each line in place, as
// strings.Fields(strings.TrimSpace(line)) would, and parses integers
// straight from the bytes, as strconv would; the writer appends digits
// to one buffer and hands it to the io.Writer in large pieces.

import (
	"bufio"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// maxFields is the most fields any snapshot record has.
const maxFields = 5

// maxLine is the longest line the readers accept (bufio.ErrTooLong
// beyond it).
const maxLine = 1 << 24

// asciiSpace marks the ASCII bytes strings.Fields and strings.TrimSpace
// treat as space.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// lineReader reads a record format line by line. Blank lines and lines
// whose first non-space character is '#' are skipped; every other line
// is split into fields, held as spans of the scanner's buffer.
type lineReader struct {
	sc   *bufio.Scanner
	line int    // lines read so far, blank and comment lines included
	b    []byte // the current line, valid until the next call to next
	trim span   // the record: the line trimmed of surrounding space
	fs   [maxFields]span
	nf   int // the record's field count, which may exceed maxFields
}

// span is the byte range b[lo:hi] of the current line.
type span struct{ lo, hi int }

func newLineReader(r io.Reader) *lineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), maxLine)
	return &lineReader{sc: sc}
}

// next advances to the next record and reports whether there is one.
// At the end of input, err reports a read error, if any.
func (lr *lineReader) next() bool {
	for lr.sc.Scan() {
		lr.line++
		if lr.split(lr.sc.Bytes()) {
			return true
		}
	}
	return false
}

func (lr *lineReader) err() error { return lr.sc.Err() }

// f returns field i < min(nf, maxFields) of the current record.
func (lr *lineReader) f(i int) []byte { return lr.b[lr.fs[i].lo:lr.fs[i].hi] }

// atoi parses field i of the current record as strconv.Atoi would; it
// reports false if the field is missing or malformed.
func (lr *lineReader) atoi(i int) (int, bool) {
	if i >= min(lr.nf, maxFields) {
		return 0, false
	}
	return atoi(lr.f(i))
}

// text returns the current record, for error messages.
func (lr *lineReader) text() []byte { return lr.b[lr.trim.lo:lr.trim.hi] }

// split splits line into the current record's fields and reports
// whether it is a record (not blank, not a comment). A field is a
// maximal run of runes that are not unicode.IsSpace, and the record runs
// from its first field's start to its last field's end, so fields and
// text are those of strings.Fields(strings.TrimSpace(string(line))),
// down to an invalid UTF-8 byte, which neither treats as space.
func (lr *lineReader) split(line []byte) bool {
	lr.b, lr.nf = line, 0
	lo := -1 // start of the field being read, or -1 between fields
	for i := 0; i < len(line); {
		space, w := true, 1
		if c := line[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, w = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case !space && lo < 0:
			if lr.nf == 0 && line[i] == '#' {
				return false
			}
			lo = i
		case space && lo >= 0:
			lr.field(lo, i)
			lo = -1
		}
		i += w
	}
	if lo >= 0 {
		lr.field(lo, len(line))
	}
	return lr.nf > 0
}

// field records line[lo:hi] as the record's next field.
func (lr *lineReader) field(lo, hi int) {
	if lr.nf == 0 {
		lr.trim.lo = lo
	}
	if lr.nf < maxFields {
		lr.fs[lr.nf] = span{lo, hi}
	}
	lr.nf++
	lr.trim.hi = hi
}

// atoi parses b as strconv.Atoi does: an optional sign, then one or
// more decimal digits, within int's range.
func atoi(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	u, ok := parseUint(b)
	if !ok {
		return 0, false
	}
	const maxInt = uint64(^uint(0) >> 1)
	if neg {
		if u > maxInt+1 {
			return 0, false
		}
		return int(-u), true
	}
	if u > maxInt {
		return 0, false
	}
	return int(u), true
}

// parseUint parses b as strconv.ParseUint(b, 10, 64) does: one or more
// decimal digits, no sign, within uint64's range.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	const cutoff = ^uint64(0) / 10
	var u uint64
	for _, c := range b {
		d := uint64(c) - '0'
		if d > 9 || u > cutoff {
			return 0, false
		}
		u = u*10 + d
		if u < d {
			return 0, false // wrapped past 2⁶⁴−1
		}
	}
	return u, true
}

// flushAt is the buffered byte count at which lineWriter hands its
// buffer to the writer; every record is far shorter than the slack.
const flushAt = 60 << 10

// lineWriter encodes records into one buffer, appending digits with
// strconv, and writes the buffer out whenever it fills. The first write
// error sticks: later records are dropped and close returns it.
type lineWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newLineWriter(w io.Writer) *lineWriter {
	return &lineWriter{w: w, buf: make([]byte, 0, flushAt+1<<10)}
}

// putStr appends s.
func (lw *lineWriter) putStr(s string) { lw.buf = append(lw.buf, s...) }

// putUint appends the decimal digits of x.
func (lw *lineWriter) putUint(x uint64) { lw.buf = strconv.AppendUint(lw.buf, x, 10) }

// putInt appends the decimal digits of x, with a sign if negative.
func (lw *lineWriter) putInt(x int) { lw.buf = strconv.AppendInt(lw.buf, int64(x), 10) }

// end ends the current record with a newline and writes the buffer out
// if it is full.
func (lw *lineWriter) end() {
	lw.buf = append(lw.buf, '\n')
	if len(lw.buf) >= flushAt {
		lw.flush()
	}
}

func (lw *lineWriter) flush() {
	if lw.err == nil && len(lw.buf) > 0 {
		_, lw.err = lw.w.Write(lw.buf)
	}
	lw.buf = lw.buf[:0]
}

// close writes out what is buffered and returns the first write error.
func (lw *lineWriter) close() error {
	lw.flush()
	return lw.err
}
