// Package snapshot is the advisor's durable session state store: a
// versioned, checksummed, self-describing binary format for a prepared
// session's full state — the workload, the pattern table, the candidate
// space with its containment DAG and coverage sets, the what-if cache's
// memoized per-(query, projected sub-config) atoms, and the standalone
// benefit matrix — so a restarted process can warm-start a session
// instead of re-deriving everything from scratch.
//
// # Format
//
// A snapshot is a fixed header followed by section frames:
//
//	header:  magic "XIASNAPS" (8 bytes) | format version (uint16 LE)
//	frame:   section id (uint16 LE) | payload length (uint32 LE)
//	         | payload | CRC-32 (IEEE) of the payload (uint32 LE)
//
// Frames appear in strictly ascending section-id order, each section at
// most once; Meta, Patterns, Workload, Space, and Atoms are required,
// Benefits is optional. Within a payload, counts and lengths are
// unsigned varints, signed integers are zigzag varints, floats are
// their exact IEEE-754 bits (8 bytes LE), and strings are
// length-prefixed bytes.
//
// # Guarantees
//
// Decode is strict: inputs that are not snapshots, carry an unknown
// format version, are truncated, fail a checksum, violate frame order,
// or contain out-of-range cross-references are rejected with typed
// errors (ErrNotSnapshot, ErrUnsupportedVersion, ErrCorrupt) — never a
// panic. Every count is validated against the bytes actually present
// before allocation, so a corrupt length cannot make Decode allocate
// unboundedly. Encode is deterministic: the same Snapshot value always
// produces the same bytes, which is what lets a committed golden
// fixture pin the format against drift.
//
// The package is self-contained (standard library only) so every layer
// above — core, the advisor facade, the server, the CLIs — can depend
// on it without cycles.
package snapshot

import (
	"errors"
	"fmt"
)

// Magic is the 8-byte file signature every snapshot starts with.
const Magic = "XIASNAPS"

// Version is the current format version. Decode accepts exactly this
// version; any other fails with ErrUnsupportedVersion.
const Version uint16 = 1

// Section identifies one frame of the file.
type Section uint16

// Section ids, in their required file order.
const (
	SectionMeta     Section = 1
	SectionPatterns Section = 2
	SectionWorkload Section = 3
	SectionSpace    Section = 4
	SectionAtoms    Section = 5
	SectionBenefits Section = 6
)

// String names the section for error messages and Inspect output.
func (s Section) String() string {
	switch s {
	case SectionMeta:
		return "meta"
	case SectionPatterns:
		return "patterns"
	case SectionWorkload:
		return "workload"
	case SectionSpace:
		return "space"
	case SectionAtoms:
		return "atoms"
	case SectionBenefits:
		return "benefits"
	}
	return fmt.Sprintf("section-%d", uint16(s))
}

// ErrNotSnapshot reports input that does not start with the snapshot
// magic — not a snapshot file at all.
var ErrNotSnapshot = errors.New("snapshot: not a snapshot file (bad magic)")

// ErrUnsupportedVersion is the base error of every VersionError.
var ErrUnsupportedVersion = errors.New("snapshot: unsupported format version")

// VersionError reports a well-formed header carrying a format version
// this build does not understand. It unwraps to ErrUnsupportedVersion.
type VersionError struct {
	// Got is the version the file declared.
	Got uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: unsupported format version %d (this build reads version %d)", e.Got, Version)
}

func (e *VersionError) Unwrap() error { return ErrUnsupportedVersion }

// ErrCorrupt is the base error of every CorruptError.
var ErrCorrupt = errors.New("snapshot: corrupt input")

// CorruptError reports structurally invalid input: truncation, checksum
// mismatch, frame-order violations, or out-of-range cross-references.
// It unwraps to ErrCorrupt.
type CorruptError struct {
	// Section names where decoding failed ("header" before any frame).
	Section string
	// Reason says what was wrong.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("snapshot: corrupt input: %s: %s", e.Section, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Snapshot is a prepared session's full durable state.
type Snapshot struct {
	Meta     Meta
	Patterns []string
	Workload WorkloadData
	Space    SpaceData
	Atoms    []Atom
	// Benefits is the standalone benefit matrix, present only when the
	// session had built it before saving.
	Benefits *BenefitsData
}

// Meta identifies what the snapshot was taken from and what it is
// compatible with.
type Meta struct {
	// CreatedUnixMS is the save time (Unix milliseconds).
	CreatedUnixMS int64
	// WorkloadName is the workload's display name.
	WorkloadName string
	// OptionsFP fingerprints the advisor options that shape prepared
	// state; restore refuses a snapshot taken under different options.
	OptionsFP string
	// Collections records the per-collection statistics versions the
	// cached costs were computed against; restore refuses a snapshot
	// whose collections have changed since.
	Collections []CollectionVersion
}

// CollectionVersion is one collection's statistics version at save time.
type CollectionVersion struct {
	Name    string
	Version int64
}

// WorkloadData is the serialized workload.
type WorkloadData struct {
	Queries []QueryData
	Updates []UpdateData
}

// QueryData is one weighted workload query.
type QueryData struct {
	ID     string
	Weight float64
	Text   string
}

// UpdateData is one weighted data-modification statement.
type UpdateData struct {
	// Kind is 0 for insert, 1 for delete (workload.UpdateKind values).
	Kind       uint8
	Collection string
	Weight     float64
	// DocXML is the representative inserted document (inserts).
	DocXML string
	// Path is the rendered selection path (deletes).
	Path string
}

// SpaceData is the serialized candidate space: every candidate with its
// containment-DAG children and coverage set, plus the pipeline stats
// that produced it.
type SpaceData struct {
	// NumQueries is the workload query count candidate FromQueries and
	// benefit columns index into; Decode checks it against the workload
	// section.
	NumQueries int
	// Candidates is the full space in dense-ID order (IDs are indices).
	Candidates []CandidateData
	// Basics lists the basic subset as indices into Candidates, in the
	// pipeline's Key order (the order coverage sets index).
	Basics []int32
	// StatsJSON is the pipeline's candidate.Stats as JSON, carried
	// opaquely so restored recommendations report the original pipeline
	// run byte-for-byte.
	StatsJSON []byte
}

// CandidateData is one candidate index of the space.
type CandidateData struct {
	Collection string
	// PatternID indexes the snapshot's pattern table.
	PatternID uint32
	// Type is the value type's short name ("VARCHAR", "DOUBLE", "DATE").
	Type string
	// Basic marks source-enumerated candidates; Rule names the
	// generalization rule otherwise.
	Basic bool
	Rule  string
	// DefName is the virtual index definition's name — part of every
	// cached what-if atom key, so it must survive verbatim.
	DefName string
	// EstEntries and EstPages are the definition's size estimates.
	EstEntries int64
	EstPages   int64
	// FromQueries lists originating workload query indices (basics).
	FromQueries []int32
	// Children lists direct DAG specializations as candidate indices.
	Children []int32
	// Covers lists covered basic candidates as ascending indices into
	// Basics.
	Covers []int32
}

// Atom is one memoized what-if cache entry: the engine's cache key for
// a (query, projected sub-config) pair and the evaluation it produced.
type Atom struct {
	Key           string
	CostNoIndexes float64
	Cost          float64
	UsedIndexes   []string
	// PlanDesc is kept for format v1. The advisor writes it empty and
	// ignores it on restore, so snapshots that carry plan text still
	// restore.
	PlanDesc string
}

// BenefitsData is the serialized standalone benefit matrix, rows
// aligned with SpaceData.Candidates.
type BenefitsData struct {
	NumQueries int
	Rows       [][]BenefitCell
	// Private and Update are optional per-candidate modular terms (empty
	// or full-length).
	Private []float64
	Update  []float64
}

// BenefitCell is one sparse (query, benefit) cell of a matrix row.
type BenefitCell struct {
	Query   int32
	Benefit float64
}

// Info describes a snapshot without materializing it: Inspect's output
// and the `xdb snapshot inspect` view.
type Info struct {
	Version uint16
	// Sections lists the frames in file order with their payload sizes.
	Sections []SectionInfo
	// TotalBytes is the full file size (header + frames).
	TotalBytes int64

	CreatedUnixMS int64
	WorkloadName  string
	OptionsFP     string
	Collections   []CollectionVersion
	Queries       int
	Updates       int
	Patterns      int
	Candidates    int
	Basics        int
	Atoms         int
	// BenefitRows is the benefit-matrix row count, 0 when the section is
	// absent.
	BenefitRows int
}

// SectionInfo is one frame's identity and payload size.
type SectionInfo struct {
	Section Section
	Bytes   int64
}
