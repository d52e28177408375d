package kvstore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Wire framing shared by the Server and its one client, internal/store: the
// byte-level encode/decode lives here once, next to the server that defines
// it.
//
//	mget request:  'M' | uint32 n | n x int64 keys
//	mget response: uint32 n | n x (uint32 dim | dim x float64)
//	dim  request:  'D' | uint32 0
//	dim  response: uint32 dim
//
// All integers little-endian. A row dim of MissingDim marks an absent key.

// MissingDim is the on-wire row width marking a key the server does not
// hold; clients surface such rows as nil.
const MissingDim = 0xFFFFFFFF

const missingDim = MissingDim

// maxBatch bounds the per-request key count a server will accept.
const maxBatch = 1 << 20

// maxDim bounds the row width a client accepts (64 Ki columns, 512 KiB a
// row): the width sizes every value buffer a response is read into, so a
// width taken unchecked from a frame (0xFFFFFFFE) would ask for ~32 GiB.
const maxDim = 1 << 16

// AppendMGet appends the framed MGET request for keys to dst and returns
// the extended slice.
func AppendMGet(dst []byte, keys []int64) []byte {
	dst = append(dst, 'M')
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(k))
	}
	return dst
}

// AppendDimProbe appends the framed dim-query request to dst. Servers
// predating the probe drop the connection on the unknown frame byte, which
// callers should treat as "dim unknown", not as a hard failure.
func AppendDimProbe(dst []byte) []byte {
	return append(dst, 'D', 0, 0, 0, 0)
}

// ReadMGetResponse reads one MGET response for nkeys keys of width dim from
// r. Missing keys come back as nil rows. The returned rows are freshly
// allocated; r is left positioned at the next response frame.
func ReadMGetResponse(r io.Reader, nkeys, dim int) ([][]float64, error) {
	if dim < 0 || dim > maxDim {
		return nil, fmt.Errorf("kvstore: row width %d out of range [0, %d]", dim, maxDim)
	}
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("kvstore: read count: %w", err)
	}
	n := binary.LittleEndian.Uint32(cnt[:])
	if int(n) != nkeys {
		return nil, fmt.Errorf("kvstore: response count %d, want %d", n, nkeys)
	}
	out := make([][]float64, n)
	var dimBuf [4]byte
	valBuf := make([]byte, dim*8)
	for i := 0; i < int(n); i++ {
		if _, err := io.ReadFull(r, dimBuf[:]); err != nil {
			return nil, fmt.Errorf("kvstore: read dim: %w", err)
		}
		d := binary.LittleEndian.Uint32(dimBuf[:])
		if d == MissingDim {
			continue
		}
		if int(d) != dim {
			return nil, fmt.Errorf("kvstore: row dim %d, want %d", d, dim)
		}
		if _, err := io.ReadFull(r, valBuf); err != nil {
			return nil, fmt.Errorf("kvstore: read values: %w", err)
		}
		row := make([]float64, dim)
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(valBuf[j*8:]))
		}
		out[i] = row
	}
	return out, nil
}

// ReadDimResponse reads the dim-query response from r, rejecting a width
// above maxDim.
func ReadDimResponse(r io.Reader) (int, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("kvstore: read dim probe: %w", err)
	}
	dim := binary.LittleEndian.Uint32(buf[:])
	if dim > maxDim {
		return 0, fmt.Errorf("kvstore: server reports %d-wide rows, more than %d", dim, maxDim)
	}
	return int(dim), nil
}
