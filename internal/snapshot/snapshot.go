// Package snapshot defines the self-describing binary container every
// persistent alic state dump uses: a magic header with a format
// version, followed by named sections that each carry their own length
// and a CRC-32 checksum over name and payload.
//
// The container deliberately knows nothing about what the sections
// mean. Producers (dynatree, core, serve, ...) serialize their state
// into a payload with an Encoder and register it under a name;
// consumers look sections up by name and decode with a Decoder.
// Sections a reader does not recognise are skipped, which is the
// forward-compatibility rule: a newer writer may add sections freely
// as long as the container version and the sections an old reader
// depends on keep their meaning.
//
// Corruption is always loud. A bad magic, an unsupported version, a
// short read, a length that overruns the buffer, or a checksum
// mismatch all surface as an error wrapping ErrCorruptSnapshot (with
// the section name when one is known) — never a panic and never a
// silent partial restore.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies an alic snapshot container. The trailing byte is
// the container-format generation, separate from Version so that a
// byte-level incompatible rework is detected before any parsing.
var magic = [8]byte{'a', 'l', 'i', 'c', 's', 'n', 'p', '1'}

// Version is the container version this build writes. Version 2
// checksums each section's name together with its payload, so a
// flipped name byte fails loudly instead of renaming the section into
// one the reader skips. Version 1 checksummed the payload alone;
// readers still accept it so earlier checkpoints load. Readers accept
// exactly the versions they understand; unknown sections inside an
// accepted version are skipped.
const Version uint32 = 2

// minVersion is the oldest container version this build reads.
const minVersion uint32 = 1

// sectionSum is the checksum a container of the given version stores
// for a section.
func sectionSum(version uint32, name string, payload []byte) uint32 {
	sum := uint32(0)
	if version >= 2 {
		sum = crc32.Update(sum, crc32.IEEETable, []byte(name))
	}
	return crc32.Update(sum, crc32.IEEETable, payload)
}

// ErrCorruptSnapshot is the sentinel wrapped by every decoding
// failure: checksum mismatches, truncated payloads, impossible
// lengths, bad magic. Callers test with errors.Is.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

// ErrUnsupportedVersion is returned when the container parses but its
// version is newer than this build understands. It deliberately does
// not wrap ErrCorruptSnapshot: the data may be fine, the reader is
// just too old.
var ErrUnsupportedVersion = errors.New("unsupported snapshot version")

// CorruptError reports where a snapshot failed to decode. Section is
// empty when the container header itself is damaged.
type CorruptError struct {
	Section string
	Reason  string
}

func (e *CorruptError) Error() string {
	if e.Section == "" {
		return "corrupt snapshot: " + e.Reason
	}
	return fmt.Sprintf("corrupt snapshot: section %q: %s", e.Section, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorruptSnapshot }

func corruptf(section, format string, args ...any) error {
	return &CorruptError{Section: section, Reason: fmt.Sprintf(format, args...)}
}

// Corruptf builds a CorruptError for the named section — for
// producers whose payload decoded structurally but violates a
// semantic invariant (id out of range, mismatched counts).
func Corruptf(section, format string, args ...any) error {
	return corruptf(section, format, args...)
}

// maxSectionName bounds section names so a corrupted length cannot
// drive a huge allocation before the checksum is even consulted.
const maxSectionName = 1 << 10

// Writer assembles a container. Sections are written in the order
// they are added; the order is part of the byte format but not part
// of the semantic contract (readers look up by name).
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter writes the container header to w and returns a Writer for
// appending sections.
func NewWriter(w io.Writer) *Writer {
	sw := &Writer{w: w}
	var hdr [12]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	_, sw.err = w.Write(hdr[:])
	return sw
}

// Section appends one named section: name length, payload length,
// CRC-32 (IEEE) of name then payload, name bytes, payload bytes.
func (sw *Writer) Section(name string, payload []byte) error {
	if sw.err != nil {
		return sw.err
	}
	if len(name) == 0 || len(name) > maxSectionName {
		sw.err = fmt.Errorf("snapshot: section name length %d out of range", len(name))
		return sw.err
	}
	var hdr [2 + 8 + 4]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(len(name)))
	binary.LittleEndian.PutUint64(hdr[2:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[10:], sectionSum(Version, name, payload))
	if _, sw.err = sw.w.Write(hdr[:]); sw.err != nil {
		return sw.err
	}
	if _, sw.err = io.WriteString(sw.w, name); sw.err != nil {
		return sw.err
	}
	_, sw.err = sw.w.Write(payload)
	return sw.err
}

// Err reports the first write error, if any.
func (sw *Writer) Err() error { return sw.err }

// Container is a fully read and checksum-verified snapshot.
type Container struct {
	sections []section
}

type section struct {
	name    string
	payload []byte
}

// Read consumes an entire container from r, verifying the header and
// every section checksum. Allocation for each section is capped by
// the number of bytes actually available, so a corrupted length field
// fails fast instead of attempting a huge allocation.
func Read(r io.Reader) (*Container, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, corruptf("", "reading container: %v", err)
	}
	return Parse(data)
}

// Parse decodes a container from an in-memory buffer. The returned
// Container aliases data; callers must not mutate it afterwards.
func Parse(data []byte) (*Container, error) {
	if len(data) < 12 {
		return nil, corruptf("", "short container: %d bytes", len(data))
	}
	for i, b := range magic {
		if data[i] != b {
			return nil, corruptf("", "bad magic %q", data[:8])
		}
	}
	ver := binary.LittleEndian.Uint32(data[8:])
	if ver < minVersion || ver > Version {
		return nil, fmt.Errorf("%w: container version %d, this build reads %d to %d", ErrUnsupportedVersion, ver, minVersion, Version)
	}
	c := &Container{}
	rest := data[12:]
	for len(rest) > 0 {
		if len(rest) < 2+8+4 {
			return nil, corruptf("", "truncated section header: %d trailing bytes", len(rest))
		}
		nameLen := int(binary.LittleEndian.Uint16(rest[0:]))
		payLen64 := binary.LittleEndian.Uint64(rest[2:])
		sum := binary.LittleEndian.Uint32(rest[10:])
		rest = rest[14:]
		if nameLen == 0 || nameLen > maxSectionName || nameLen > len(rest) {
			return nil, corruptf("", "section name length %d overruns buffer (%d bytes left)", nameLen, len(rest))
		}
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		if payLen64 > uint64(len(rest)) {
			return nil, corruptf(name, "payload length %d overruns buffer (%d bytes left)", payLen64, len(rest))
		}
		payload := rest[:payLen64]
		rest = rest[payLen64:]
		if got := sectionSum(ver, name, payload); got != sum {
			return nil, corruptf(name, "checksum mismatch: stored %08x, computed %08x", sum, got)
		}
		c.sections = append(c.sections, section{name: name, payload: payload})
	}
	return c, nil
}

// Section returns the payload of the named section. Duplicate names
// resolve to the first occurrence. Absent sections return ok=false:
// whether that is an error is the caller's call (forward-compat skip
// rule works both directions).
func (c *Container) Section(name string) ([]byte, bool) {
	for _, s := range c.sections {
		if s.name == name {
			return s.payload, true
		}
	}
	return nil, false
}

// Names lists the section names in container order, mostly for tests
// and diagnostics.
func (c *Container) Names() []string {
	out := make([]string, len(c.sections))
	for i, s := range c.sections {
		out[i] = s.name
	}
	return out
}
