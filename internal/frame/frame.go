// Package frame implements the framed, checksummed binary container shared
// by every on-disk artifact in this repository (anytime-run checkpoints,
// persisted query indexes). A frame is a fixed little-endian header followed
// by an opaque payload:
//
//	offset  size  field
//	     0     4  magic   (per artifact kind)
//	     4     4  version (per artifact kind)
//	     8     8  payload length in bytes
//	    16     4  CRC-32 (IEEE) of the payload
//	    20     …  payload
//
// The magic rejects arbitrary files immediately, the length detects
// truncation before the payload decoder produces a confusing partial decode,
// and the CRC detects any bit-level corruption of the payload. Integrity of
// the header itself is implied: a corrupted magic/version fails those
// checks, a corrupted length or CRC fails the truncation or checksum check.
//
// Publish is the one code path that writes a file in this module: framed
// artifacts through Kind.WriteFile, and every other output (job manifests,
// converted and generated graphs, CLI results, benchmark reports) directly.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"

	"anyscan/internal/faultinject"
)

// headerSize is the fixed frame header length in bytes.
const headerSize = 20

// Kind identifies one artifact family: its magic number, the single
// supported format version, a human-readable name used in error messages,
// and an upper bound on the declared payload length so a corrupt or hostile
// header cannot force an enormous allocation.
type Kind struct {
	Magic      uint32
	Version    uint32
	Name       string // e.g. "checkpoint", "index"
	MaxPayload int64
}

// Write frames payload and writes it to w: header first, then the payload.
// The payload must be fully materialized so its length and checksum can be
// computed up front; a failed Write therefore never emits a partial frame
// unless w itself fails mid-write.
func (k Kind) Write(w io.Writer, payload []byte) error {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], k.Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], k.Version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("anyscan: writing %s header: %w", k.Name, err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("anyscan: writing %s payload: %w", k.Name, err)
	}
	return nil
}

// Read reads and verifies one frame from r, returning the payload. Magic,
// version, declared length, and checksum are all checked before any byte of
// the payload is handed to the caller.
func (k Kind) Read(r io.Reader) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("anyscan: reading %s header: %w", k.Name, err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != k.Magic {
		return nil, fmt.Errorf("anyscan: not a %s file (magic %#x, want %#x)", k.Name, m, k.Magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != k.Version {
		return nil, fmt.Errorf("anyscan: %s format version %d not supported (want %d)", k.Name, v, k.Version)
	}
	size := binary.LittleEndian.Uint64(hdr[8:16])
	if size == 0 || size > uint64(k.MaxPayload) {
		return nil, fmt.Errorf("anyscan: implausible %s payload length %d", k.Name, size)
	}
	// Read in bounded chunks so a corrupt length field cannot force a huge
	// upfront allocation before the (short) stream runs out.
	const chunk = 1 << 20
	payload := make([]byte, 0, min(size, chunk))
	for uint64(len(payload)) < size {
		c := size - uint64(len(payload))
		if c > chunk {
			c = chunk
		}
		start := len(payload)
		payload = append(payload, make([]byte, c)...)
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			return nil, fmt.Errorf("anyscan: %s truncated (declared %d payload bytes): %w", k.Name, size, err)
		}
	}
	want := binary.LittleEndian.Uint32(hdr[16:20])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("anyscan: %s payload corrupted (CRC-32 %#x, want %#x)", k.Name, got, want)
	}
	return payload, nil
}

// WriteFile frames payload and publishes it to path with Publish, under
// the fault points k.Name+".write", ".sync" and ".rename".
func (k Kind) WriteFile(path string, payload []byte) error {
	return Publish(path, k.Name, func(w io.Writer) error { return k.Write(w, payload) })
}

// Publish is the one way this module writes a file, so that a crash never
// leaves it torn: write fills a buffered temporary file beside path, which is
// flushed, fsynced and renamed over path, and then the directory is fsynced
// so the rename itself survives a crash. At every instant either the previous
// file or the complete new one exists under path. On any error the temporary
// file is removed and path is untouched. The file gets the mode os.Create
// gives, 0666 less the umask. The writer handed to write is a bufio.Writer,
// so a write error also fails the flush that follows. name labels errors
// and the fault points name+".write" (after write, before the final flush),
// name+".sync" (after the fsync) and name+".rename" (before the rename).
func Publish(path, name string, write func(io.Writer) error) (err error) {
	f, err := createTemp(path)
	if err != nil {
		return fmt.Errorf("anyscan: creating %s temp file: %w", name, err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	bw := bufio.NewWriter(f)
	if err = write(bw); err == nil {
		err = faultinject.Hit(name + ".write")
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("anyscan: writing %s %s: %w", name, tmp, err)
	}
	if err = f.Sync(); err == nil {
		err = faultinject.Hit(name + ".sync")
	}
	if err != nil {
		return fmt.Errorf("anyscan: syncing %s %s: %w", name, tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("anyscan: closing %s %s: %w", name, tmp, err)
	}
	if err = faultinject.Hit(name + ".rename"); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("anyscan: publishing %s %s: %w", name, path, err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// createTemp creates a new file named path+".tmp-<random>" with the mode
// os.Create gives; os.CreateTemp would make it 0600.
func createTemp(path string) (f *os.File, err error) {
	for range 100 {
		name := path + ".tmp-" + strconv.FormatUint(uint64(rand.Uint32()), 10)
		f, err = os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			break
		}
	}
	return f, err
}

// ReadFile opens path and reads one frame with Read.
func (k Kind) ReadFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("anyscan: opening %s: %w", k.Name, err)
	}
	defer f.Close()
	return k.Read(f)
}

// syncDir fsyncs a directory so a just-completed rename is durable. Best
// effort: errors are ignored because not all filesystems support it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
