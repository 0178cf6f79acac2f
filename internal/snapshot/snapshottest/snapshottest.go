// Package snapshottest supports tests and fuzz targets that feed
// mutated snapshot payloads to decoders, and the committed corpora of
// those targets.
package snapshottest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
)

// Resealed returns a copy of data with every section checksum
// recomputed, walking the container layout as far as it parses: over
// name and payload from container version 2 on, over the payload alone
// in version 1. Random mutations then reach the section decoders
// instead of stopping at the CRC; header and framing damage is left in
// place.
func Resealed(data []byte) []byte {
	out := append([]byte(nil), data...)
	const hdr, secHdr = 12, 2 + 8 + 4
	if len(out) < hdr {
		return out
	}
	withName := binary.LittleEndian.Uint32(out[8:]) >= 2
	for at := hdr; len(out)-at >= secHdr; {
		nameLen := int(binary.LittleEndian.Uint16(out[at:]))
		payLen := binary.LittleEndian.Uint64(out[at+2:])
		start := at + secHdr + nameLen
		if start > len(out) || payLen > uint64(len(out)-start) {
			break
		}
		end := start + int(payLen)
		from := start
		if withName {
			from = at + secHdr
		}
		binary.LittleEndian.PutUint32(out[at+10:], crc32.ChecksumIEEE(out[from:end]))
		at = end
	}
	return out
}

// CorpusFile returns the contents of a native fuzzing corpus file that
// holds the one []byte value payload.
func CorpusFile(payload []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", payload))
}

// CorpusPayload decodes a corpus file that holds one []byte value.
func CorpusPayload(raw []byte) ([]byte, error) {
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 2 || string(lines[0]) != "go test fuzz v1" {
		return nil, fmt.Errorf("not a one-value corpus file")
	}
	lit, ok := bytes.CutPrefix(lines[1], []byte("[]byte("))
	if lit, ok = bytes.CutSuffix(lit, []byte(")")); !ok {
		return nil, fmt.Errorf("value is not a []byte literal")
	}
	s, err := strconv.Unquote(string(lit))
	return []byte(s), err
}
