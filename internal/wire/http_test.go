package wire

import (
	"bytes"
	"errors"
	"io"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"
	"testing/iotest"
)

// ReadBody reads at most one byte past the cap, however the reader splits
// its bytes and whether or not the length was declared, and BodyError
// accepts a body of exactly the cap and refuses one byte more.
func TestReadBodyCap(t *testing.T) {
	const limit = 64
	// DataErrReader reads its source ahead to return the last bytes with
	// io.EOF, so only the others show what ReadBody left unread.
	readers := []struct {
		name       string
		wrap       func(io.Reader) io.Reader
		readsAhead bool
	}{
		{"whole", func(r io.Reader) io.Reader { return r }, false},
		{"one byte", iotest.OneByteReader, false},
		{"half read", iotest.HalfReader, false},
		{"data+EOF", iotest.DataErrReader, true},
	}
	for _, rd := range readers {
		for _, size := range []int{0, limit - 1, limit, limit + 1, limit + 2, 3 * limit} {
			for _, declared := range []int64{int64(size), -1} {
				src := bytes.NewReader(bytes.Repeat([]byte{'x'}, size))
				body, err := ReadBody(rd.wrap(src), declared, limit)
				if err != nil {
					t.Fatalf("%s, %d bytes, declared %d: %v", rd.name, size, declared, err)
				}
				if want := min(size, limit+1); len(body) != want {
					t.Errorf("%s, %d bytes, declared %d: read %d, want %d", rd.name, size, declared, len(body), want)
				}
				if left := size - len(body); !rd.readsAhead && src.Len() != left {
					t.Errorf("%s, %d bytes, declared %d: %d bytes left unread, want %d", rd.name, size, declared, src.Len(), left)
				}
				info := BodyError(body, err, limit)
				if refused := info != nil; refused != (size > limit) {
					t.Errorf("%s, %d bytes, declared %d: refused %v", rd.name, size, declared, refused)
				} else if refused && info.Message != "request body exceeds the 64-byte cap" {
					t.Errorf("%s, %d bytes: refusal %q", rd.name, size, info.Message)
				}
				PutBuffer(body)
			}
		}
	}
	boom := errors.New("boom")
	body, err := ReadBody(iotest.ErrReader(boom), -1, limit)
	if info := BodyError(body, err, limit); !errors.Is(err, boom) || info == nil || info.Message != "reading request body: boom" {
		t.Fatalf("a failed read: %v, %+v", err, info)
	}
}

// Every response carries its body's exact length, on either side of the
// table's bound.
func TestWriteResponseContentLength(t *testing.T) {
	for _, n := range []int{0, 1, 99, 100, 387, cachedLengths - 1, cachedLengths, cachedLengths + 1, 3 * cachedLengths} {
		for range 2 { // the first write fills the table, the second reads it
			rec := httptest.NewRecorder()
			WriteResponse(rec, 200, ContentType, bytes.Repeat([]byte{'x'}, n), "")
			if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(n) || rec.Body.Len() != n {
				t.Fatalf("%d-byte body: Content-Length %q, %d bytes written", n, got, rec.Body.Len())
			}
		}
	}
}

// A cached Content-Length value has capacity 1, so an append to the header
// value copies it and the table keeps its entry.
func TestContentLengthValueCapped(t *testing.T) {
	for _, n := range []int{7, 387, cachedLengths - 1} {
		v := contentLength(n)
		if len(v) != 1 || cap(v) != 1 {
			t.Fatalf("length %d: value %q of capacity %d", n, v, cap(v))
		}
		if &contentLength(n)[0] != &v[0] {
			t.Fatalf("length %d: the table built its value twice", n)
		}
		grown := append(v, "more")
		grown[0] = "overwritten"
		if got := contentLength(n); !slices.Equal(got, []string{strconv.Itoa(n)}) || v[0] != strconv.Itoa(n) {
			t.Fatalf("length %d: an append reached the table: %q", n, got)
		}
	}
	if v := contentLength(cachedLengths); !slices.Equal(v, []string{strconv.Itoa(cachedLengths)}) {
		t.Fatalf("length %d: %q", cachedLengths, v)
	}
}

// Goroutines that write bodies of the same new lengths at once all read
// each length's one value, whichever of them built it.
func TestContentLengthConcurrentFill(t *testing.T) {
	const from, to = 5000, 6000
	got := make([][][]string, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := from; n < to; n++ {
				got[g] = append(got[g], contentLength(n))
			}
		}()
	}
	wg.Wait()
	for _, values := range got {
		for i, v := range values {
			if n := from + i; !slices.Equal(v, []string{strconv.Itoa(n)}) || &v[0] != &contentLength(n)[0] {
				t.Fatalf("length %d: %q, not the table's value", n, v)
			}
		}
	}
}
