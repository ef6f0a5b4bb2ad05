package proto

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// FrameReader decodes frames from a transport through a growable
// internal buffer: one Read syscall pulls in as many frames as the
// peer batched (a pipelined client or a coalesced server flush), and
// Next then slices them out without further I/O. The buffer starts
// small, doubles to fit whatever batch or oversized frame arrives, and
// shrinks back after an outsized one so idle connections stay cheap.
//
// Frames returned by Next carry pooled payloads exactly like ReadFrame:
// recycle them once decoded. A FrameReader is not safe for concurrent
// use; it is owned by one read loop.
type FrameReader struct {
	r   io.Reader
	buf []byte
	ro  int // start of unconsumed bytes
	wo  int // end of unconsumed bytes
	// Stats, when non-nil, counts every decoded frame by type and wire
	// size. Cleared by Reset; rebind it after GetReader.
	Stats *WireStats
}

// Read buffer sizing: connections start at readBufInit; the buffer
// doubles as batches or big frames demand, and capacities above
// readBufMax are released after use (and never pooled).
const (
	readBufInit = 4 << 10
	readBufMax  = 256 << 10
)

// NewFrameReader returns a reader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, readBufInit)}
}

// Reset rebinds the reader to a new transport, discarding buffered
// bytes — for reuse across connections (see the reader pool).
func (fr *FrameReader) Reset(r io.Reader) {
	fr.r = r
	fr.ro, fr.wo = 0, 0
	fr.Stats = nil
	if cap(fr.buf) > readBufMax {
		fr.buf = make([]byte, readBufInit)
	}
}

// Whole reports whether a whole frame is buffered, so that Next returns
// it (or rejects its length) without touching the transport.
func (fr *FrameReader) Whole() bool {
	n := fr.wo - fr.ro
	return n >= 4 && n-4 >= int(binary.LittleEndian.Uint32(fr.buf[fr.ro:]))
}

// fill ensures at least need unconsumed bytes are buffered, growing the
// buffer when a frame outgrows it and compacting leftovers first.
func (fr *FrameReader) fill(need int) error {
	if fr.wo-fr.ro >= need {
		return nil
	}
	if fr.ro > 0 && (fr.ro+need > len(fr.buf) || fr.wo == len(fr.buf)) {
		copy(fr.buf, fr.buf[fr.ro:fr.wo])
		fr.wo -= fr.ro
		fr.ro = 0
	}
	if need > len(fr.buf) {
		size := len(fr.buf)
		for size < need {
			size *= 2
		}
		grown := make([]byte, size)
		copy(grown, fr.buf[fr.ro:fr.wo])
		fr.wo -= fr.ro
		fr.ro = 0
		fr.buf = grown
	}
	for fr.wo-fr.ro < need {
		n, err := fr.r.Read(fr.buf[fr.wo:])
		fr.wo += n
		if err != nil {
			if fr.wo-fr.ro >= need {
				return nil
			}
			return err
		}
	}
	return nil
}

// Next returns the next frame. The payload lives in a pooled buffer;
// call Frame.Recycle once done with it (or don't — see Recycle).
func (fr *FrameReader) Next() (Frame, error) {
	if err := fr.fill(4); err != nil {
		if err == io.EOF && fr.wo > fr.ro {
			err = fmt.Errorf("%w: %v", ErrTruncated, io.ErrUnexpectedEOF)
		}
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(fr.buf[fr.ro:])
	if n < 9 {
		return Frame{}, ErrTruncated
	}
	if n > MaxFrame+9 {
		return Frame{}, ErrFrameTooBig
	}
	if err := fr.fill(4 + int(n)); err != nil {
		if err == io.EOF {
			err = fmt.Errorf("%w: %v", ErrTruncated, err)
		}
		return Frame{}, err
	}
	body := fr.buf[fr.ro+4 : fr.ro+4+int(n)]
	fr.ro += 4 + int(n)
	if fr.ro == fr.wo {
		fr.ro, fr.wo = 0, 0
		if cap(fr.buf) > readBufMax {
			// An outsized frame grew the buffer; release it now that
			// nothing is buffered so idle connections shrink back.
			fr.buf = make([]byte, readBufInit)
		}
	}
	// Copy the payload into a pooled frame buffer: a client's read loop
	// and a request that parks hand frames to other goroutines while this
	// reader refills the shared buffer.
	bp := getBuf(int(n))
	out := append((*bp)[:0], body...)
	*bp = out
	f, err := parseBody(out)
	if err != nil {
		putBuf(bp)
		return Frame{}, err
	}
	f.pooled = bp
	fr.Stats.CountIn(f.Type, 4+int(n))
	return f, nil
}

// readerPool recycles FrameReaders (and their grown buffers) across
// connections, so a churning accept loop does not re-learn its batch
// size from 4KB every time.
var readerPool = sync.Pool{
	New: func() any { return NewFrameReader(nil) },
}

// GetReader returns a pooled FrameReader bound to r.
func GetReader(r io.Reader) *FrameReader {
	fr := readerPool.Get().(*FrameReader)
	fr.Reset(r)
	return fr
}

// PutReader returns a reader to the pool once its connection is done.
func PutReader(fr *FrameReader) {
	fr.Reset(nil)
	readerPool.Put(fr)
}
