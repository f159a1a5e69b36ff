package topo

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"unicode"
)

// Interchange files. Every file this repository persists or ships — the
// description file (MCTOP topologies are created by libmctop once and then
// loaded from disk, Section 2) and the spool's .place and .map sidecars —
// shares one line framing:
//
//	#key <registry key>      the header: the leading comment block
//	<magic>                  the format and its version
//	<directive> <values...>  the format's vocabulary, one per line
//	end                      the last line that is neither blank nor a comment
//
// Writer writes it and ReadFrame reads it; nothing else does. README.md's
// "Persistence" section documents the three vocabularies.

// Magic is the description file's magic line.
const Magic = "mctop 1"

const keyHeader = "#key"

// Writer writes one framed file. A value holding a line break would smuggle
// lines into the file, so the writer refuses it: the value is not written
// and End reports the error. Output is buffered, but a large file may reach
// the underlying writer before End, so on error what was written is
// incomplete and must be discarded.
type Writer struct {
	bw      *bufio.Writer
	started bool
	err     error
}

// NewWriter starts a framed file: its #key header (none when key is empty)
// and its magic line.
func NewWriter(w io.Writer, key, magic string) *Writer {
	fw := &Writer{bw: bufio.NewWriter(w)}
	if key != "" {
		fw.Line(keyHeader).Str(key)
	}
	return fw.Line(magic)
}

// Line starts the next line with a directive.
func (w *Writer) Line(directive string) *Writer {
	if w.started {
		w.bw.WriteByte('\n')
	}
	w.started = true
	return w.put(directive)
}

// Str appends a value to the line.
func (w *Writer) Str(s string) *Writer {
	w.bw.WriteByte(' ')
	return w.put(s)
}

func (w *Writer) put(s string) *Writer {
	if strings.ContainsAny(s, "\r\n") {
		w.err = fmt.Errorf("value %q holds a line break", s)
	} else {
		w.bw.WriteString(s)
	}
	return w
}

// Int appends an integer to the line.
func (w *Writer) Int(v int64) *Writer {
	w.bw.Write(strconv.AppendInt(append(w.bw.AvailableBuffer(), ' '), v, 10))
	return w
}

// Ints appends integers to the line.
func (w *Writer) Ints(vs []int) *Writer {
	for _, v := range vs {
		w.Int(int64(v))
	}
	return w
}

// Float appends a float to the line, formatted like %g.
func (w *Writer) Float(v float64) *Writer {
	w.bw.Write(strconv.AppendFloat(append(w.bw.AvailableBuffer(), ' '), v, 'g', -1, 64))
	return w
}

// End writes the end marker and flushes.
func (w *Writer) End() error {
	w.Line("end").bw.WriteByte('\n')
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// ReadFrame reads one framed file. The leading comment block is the header:
// it may hold one non-empty #key line, whose key ReadFrame returns ("" when
// there is none). The magic line must follow it. visit gets each directive
// with the rest of its line, and `end` must be the last line that is
// neither blank nor a comment; every other comment is skipped. A nil visit
// reads the header and the magic line alone.
func ReadFrame(r io.Reader, magic string, visit func(directive, rest string) error) (key string, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<22)
	n := 0
	fail := func(format string, args ...any) (string, error) {
		return "", fmt.Errorf("line %d: %w", n, fmt.Errorf(format, args...))
	}
	const (
		inHeader = iota
		inBody
		ended
	)
	state, sawKey := inHeader, false
	for sc.Scan() {
		n++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '#' {
			rest, ok := strings.CutPrefix(line, keyHeader)
			if state != inHeader || !ok || rest != "" && !unicode.IsSpace(rune(rest[0])) {
				continue // a plain comment
			}
			switch key = strings.TrimSpace(rest); {
			case sawKey:
				return fail("second #key line")
			case key == "":
				return fail("empty #key line")
			}
			sawKey = true
			continue
		}
		switch state {
		case inHeader:
			if line != magic {
				return fail("bad magic %q", line)
			}
			if visit == nil {
				return key, nil
			}
			state = inBody
		case inBody:
			if line == "end" {
				state = ended
				continue
			}
			directive, rest := line, ""
			if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
				directive, rest = line[:i], strings.TrimSpace(line[i:])
			}
			if err := visit(directive, rest); err != nil {
				return fail("%s: %w", directive, err)
			}
		default:
			return fail("%q after end", line)
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	switch state {
	case inHeader:
		return fail("no %q line", magic)
	case inBody:
		return fail("missing end marker")
	}
	return key, nil
}

// Encode writes a topology spec as a description file.
func Encode(w io.Writer, s *Spec) error { return EncodeKeyed(w, "", s) }

// EncodeKeyed writes a description file under a #key header naming key
// (none when key is empty): the header is a comment, so any description
// file reader decodes it.
func EncodeKeyed(w io.Writer, key string, s *Spec) error {
	fw := NewWriter(w, key, Magic)
	fw.Line("name").Str(sanitize(s.Name))
	fw.Line("contexts").Int(int64(s.Contexts))
	fw.Line("nodes").Int(int64(s.Nodes))
	fw.Line("smt").Int(int64(s.SMTWays))
	fw.Line("freq_ghz").Float(s.FreqGHz)
	for i, l := range s.Levels {
		fw.Line("level").Int(int64(i)).Str(l.Kind.String()).Str(sanitize(l.Name)).Int(l.Min).Int(l.Median).Int(l.Max)
		for _, g := range l.Groups {
			fw.Line("group").Int(int64(i)).Str(":").Ints(g)
		}
	}
	fw.Line("node_of_socket").Ints(s.NodeOfSocket)
	for _, row := range s.SocketLat {
		fw.Line("socket_lat")
		for _, v := range row {
			fw.Int(v)
		}
	}
	for _, row := range s.SocketBW {
		fw.Line("socket_bw")
		for _, v := range row {
			fw.Float(v)
		}
	}
	for _, row := range s.MemLat {
		fw.Line("mem_lat")
		for _, v := range row {
			fw.Int(v)
		}
	}
	for _, row := range s.MemBW {
		fw.Line("mem_bw")
		for _, v := range row {
			fw.Float(v)
		}
	}
	if s.StreamCoreBW > 0 {
		fw.Line("stream_core_bw").Float(s.StreamCoreBW)
	}
	if c := s.Cache; c != nil {
		fw.Line("cache").Int(c.LatL1).Int(c.LatL2).Int(c.LatLLC).Int(c.SizeL1).Int(c.SizeL2).Int(c.SizeLLC)
	}
	if p := s.Power; p != nil {
		fw.Line("power").Float(p.Idle).Float(p.Full).Float(p.FirstCtx).Float(p.SecondCtx).
			Float(p.PerSocketBase).Float(p.PerFirstCtx).Float(p.PerExtraCtx).Float(p.DRAM)
	}
	return fw.End()
}

func sanitize(s string) string {
	if s == "" {
		return "-"
	}
	return strings.ReplaceAll(s, " ", "_")
}

func unsanitize(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

// Decode parses a description file back into a spec; a #key header is
// skipped.
func Decode(r io.Reader) (*Spec, error) {
	_, s, err := DecodeKeyed(r)
	return s, err
}

// DecodeKeyed parses a description file back into a spec and returns its
// header's key ("" when it has none).
func DecodeKeyed(r io.Reader) (string, *Spec, error) {
	s := &Spec{}
	curLevel := -1
	key, err := ReadFrame(r, Magic, func(directive, rest string) error {
		args := strings.Fields(rest)
		switch directive {
		case "name":
			if len(args) != 1 {
				return fmt.Errorf("want 1 arg, got %d", len(args))
			}
			s.Name = unsanitize(args[0])
		case "contexts":
			return parseInt(args, &s.Contexts)
		case "nodes":
			return parseInt(args, &s.Nodes)
		case "smt":
			return parseInt(args, &s.SMTWays)
		case "freq_ghz":
			return parseFloat(args, &s.FreqGHz)
		case "level":
			if len(args) != 6 {
				return fmt.Errorf("want 6 args, got %d", len(args))
			}
			idx, err := strconv.Atoi(args[0])
			if err != nil || idx != len(s.Levels) {
				return fmt.Errorf("index %q out of order", args[0])
			}
			var kind LevelKind
			switch args[1] {
			case "group":
				kind = LevelGroup
			case "socket":
				kind = LevelSocket
			case "cross":
				kind = LevelCross
			default:
				return fmt.Errorf("unknown kind %q", args[1])
			}
			lat, err := parseInt64Row(args[3:])
			if err != nil {
				return fmt.Errorf("latencies unparsable")
			}
			s.Levels = append(s.Levels, Level{
				Name: unsanitize(args[2]), Kind: kind, Min: lat[0], Median: lat[1], Max: lat[2],
			})
			curLevel = idx
		case "group":
			if len(args) < 3 || args[1] != ":" {
				return fmt.Errorf("want 'group <level> : ctx...'")
			}
			idx, err := strconv.Atoi(args[0])
			if err != nil || idx != curLevel {
				return fmt.Errorf("level %q does not match current level %d", args[0], curLevel)
			}
			g, err := parseIntRow(args[2:])
			if err != nil {
				return err
			}
			s.Levels[idx].Groups = append(s.Levels[idx].Groups, g)
		case "node_of_socket":
			row, err := parseIntRow(args)
			if err != nil {
				return err
			}
			s.NodeOfSocket = append(s.NodeOfSocket, row...)
		case "socket_lat", "mem_lat":
			row, err := parseInt64Row(args)
			if err != nil {
				return err
			}
			if directive == "socket_lat" {
				s.SocketLat = append(s.SocketLat, row)
			} else {
				s.MemLat = append(s.MemLat, row)
			}
		case "socket_bw", "mem_bw":
			row, err := parseFloatRow(args)
			if err != nil {
				return err
			}
			if directive == "socket_bw" {
				s.SocketBW = append(s.SocketBW, row)
			} else {
				s.MemBW = append(s.MemBW, row)
			}
		case "stream_core_bw":
			return parseFloat(args, &s.StreamCoreBW)
		case "cache":
			vals, err := parseInt64Row(args)
			if err != nil || len(vals) != 6 {
				return fmt.Errorf("want 6 integers")
			}
			s.Cache = &CacheInfo{
				LatL1: vals[0], LatL2: vals[1], LatLLC: vals[2],
				SizeL1: vals[3], SizeL2: vals[4], SizeLLC: vals[5],
			}
		case "power":
			vals, err := parseFloatRow(args)
			if err != nil || len(vals) != 8 {
				return fmt.Errorf("want 8 numbers")
			}
			s.Power = &PowerInfo{
				Idle: vals[0], Full: vals[1], FirstCtx: vals[2], SecondCtx: vals[3],
				PerSocketBase: vals[4], PerFirstCtx: vals[5], PerExtraCtx: vals[6], DRAM: vals[7],
			}
		default:
			return fmt.Errorf("unknown directive")
		}
		return nil
	})
	if err != nil {
		return "", nil, fmt.Errorf("topo: description %w", err)
	}
	return key, s, nil
}

func parseInt(args []string, out *int) error {
	if len(args) != 1 {
		return fmt.Errorf("want 1 arg, got %d", len(args))
	}
	v, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	*out = v
	return nil
}

func parseFloat(args []string, out *float64) error {
	if len(args) != 1 {
		return fmt.Errorf("want 1 arg, got %d", len(args))
	}
	v, err := strconv.ParseFloat(args[0], 64)
	if err != nil {
		return err
	}
	*out = v
	return nil
}

func parseIntRow(args []string) ([]int, error) {
	row := make([]int, 0, len(args))
	for _, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

func parseInt64Row(args []string) ([]int64, error) {
	row := make([]int64, 0, len(args))
	for _, a := range args {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

func parseFloatRow(args []string) ([]float64, error) {
	row := make([]float64, 0, len(args))
	for _, a := range args {
		v, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// WriteFileAtomic writes a file via a temp file in the target directory
// plus rename, so a crash mid-write can never leave a torn file where a
// reader looks. Shared by SaveFile and the registry's spool tier — any
// future durability fix (fsync before rename, say) lands in one place.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// SaveFile writes a topology's description file to disk atomically (a
// crashed writer can never leave a torn description file behind).
func SaveFile(path string, t *Topology) error {
	spec := t.Spec()
	return WriteFileAtomic(path, func(w io.Writer) error {
		return Encode(w, &spec)
	})
}

// LoadFile reads a description file and builds the topology.
func LoadFile(path string) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := Decode(f)
	if err != nil {
		return nil, err
	}
	return FromSpec(*spec)
}
