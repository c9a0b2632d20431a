package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"quickdrop/internal/tensor"
)

// maxPresize caps the buffer a request's declared Content-Length sizes
// up front; a larger body still reads whole, growing as it arrives.
const maxPresize = 1 << 20

// readBody reads a request body whole, in one allocation when the
// request declares its length.
func readBody(r *http.Request) ([]byte, error) {
	n := min(max(r.ContentLength, 0), maxPresize)
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// decodeInputs parses a POST /v1/predict body, {"inputs":[[v, …], …]}
// with any JSON whitespace and one row of h·w·c RFC 8259 numbers per
// input, straight into a [rows, h, w, c] tensor. Each number is
// converted by strconv.ParseFloat, as encoding/json converts it, so the
// pixels are the ones json.Unmarshal would produce; a body it rejects is
// rejected here too. Anything but that one shape is an error: other or
// repeated keys, null, strings, and bytes after the object.
func decodeInputs(body []byte, h, w, c int) (*tensor.Tensor, error) {
	want := h * w * c
	// In a valid body every '[' but the outer one opens a row, and a row
	// of want numbers takes at least 2·want bytes. So the smaller bound is
	// the exact row count of a valid body, and on any other body it holds
	// the tensor to four bytes per body byte.
	rows := min(bytes.Count(body, []byte{'['})-1, len(body)/(2*want))
	var x *tensor.Tensor
	var data []float64
	if rows > 0 {
		x = tensor.New(rows, h, w, c)
		data = x.Data()
	}
	s := scanner{b: body}
	if !s.next('{') || !s.literal(`"inputs"`) || !s.next(':') || !s.next('[') {
		return nil, s.errorf(`want {"inputs":[`)
	}
	if s.next(']') {
		return nil, errors.New(`"inputs" must be non-empty`)
	}
	for r := 0; ; r++ {
		if !s.next('[') {
			return nil, s.errorf("want '[' opening input %d", r)
		}
		if r >= rows {
			return nil, fmt.Errorf("input %d: body too short for %d values", r, want)
		}
		row := data[r*want : (r+1)*want]
		k := 0
		if !s.next(']') {
			for {
				v, err := s.number()
				if err != nil {
					return nil, err
				}
				if k < want {
					row[k] = v
				}
				k++
				if s.next(']') {
					break
				}
				if !s.next(',') {
					return nil, s.errorf("want ',' or ']' after a value")
				}
			}
		}
		if k != want {
			return nil, fmt.Errorf("input %d has %d values, want %d (%dx%dx%d)", r, k, want, h, w, c)
		}
		if s.next(']') {
			break
		}
		if !s.next(',') {
			return nil, s.errorf("want ',' or ']' after input %d", r)
		}
	}
	if !s.next('}') {
		return nil, s.errorf("want '}' closing the body")
	}
	if s.skipSpace(); s.pos != len(s.b) {
		return nil, s.errorf("want the end of the body")
	}
	// The body had no '[' but the outer one and its rows', so the tensor
	// holds exactly the rows read.
	return x, nil
}

// writePredictions writes the 200 reply to a predict,
// {"predictions":[…],"version":v}, byte for byte as writeJSON encodes it.
func writePredictions(w http.ResponseWriter, version uint64, pred []int) {
	b := make([]byte, 0, 32+4*len(pred))
	b = append(b, `{"predictions":[`...)
	for i, p := range pred {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	b = append(b, `],"version":`...)
	b = strconv.AppendUint(b, version, 10)
	b = append(b, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// scanner walks a JSON body byte by byte.
type scanner struct {
	b   []byte
	pos int
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.b) {
		switch s.b[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// next skips whitespace and then c, if c comes next.
func (s *scanner) next(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.b) && s.b[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// literal skips whitespace and then lit, if lit comes next.
func (s *scanner) literal(lit string) bool {
	s.skipSpace()
	ok := bytes.HasPrefix(s.b[s.pos:], []byte(lit))
	if ok {
		s.pos += len(lit)
	}
	return ok
}

// number skips whitespace and scans one RFC 8259 number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. A number too large for
// a float64 is an error, as it is to encoding/json.
func (s *scanner) number() (float64, error) {
	s.skipSpace()
	b, start := s.b, s.pos
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		s.pos = i
		return 0, s.errorf("want a number")
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			s.pos = j
			return 0, s.errorf("want a digit after '.'")
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			s.pos = i
			return 0, s.errorf("want a digit in the exponent")
		}
	}
	s.pos = i
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, fmt.Errorf("offset %d: %w", start, err)
	}
	return v, nil
}

// digits returns the end of the run of decimal digits in b at i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// errorf reports what the scanner wanted and what it found at its
// position.
func (s *scanner) errorf(format string, args ...any) error {
	found := "the end of the body"
	if s.pos < len(s.b) {
		found = strconv.QuoteRune(rune(s.b[s.pos]))
	}
	return fmt.Errorf("offset %d: %s, found %s", s.pos, fmt.Sprintf(format, args...), found)
}
