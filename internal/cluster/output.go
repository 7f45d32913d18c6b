package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"intervalsim/internal/engine"
	"intervalsim/internal/service"
)

// CSVSink renders merged rows as the same CSV cmd/sweep emits: headers and
// rows come from engine.CSVHeader and engine.CSVRow, the renderer the
// in-process sweep uses, so a single-benchmark distributed sweep is
// byte-identical to the single-process tool. Sweeping multiple benchmarks
// prepends a "bench" column. Failed points produce no row (cmd/sweep's
// fail-soft convention: errors go to the log and the exit code).
type CSVSink struct {
	w           io.Writer
	mode        string
	multiBench  bool
	wroteHeader bool
}

// NewCSVSink returns a sink writing mode-appropriate CSV to w.
func NewCSVSink(w io.Writer, mode string, multiBench bool) *CSVSink {
	return &CSVSink{w: w, mode: mode, multiBench: multiBench}
}

// header writes the column line, once.
func (s *CSVSink) header() error {
	if s.wroteHeader {
		return nil
	}
	s.wroteHeader = true
	return s.write("bench", engine.CSVHeader(s.mode))
}

// write writes one CSV line, led by the bench column when sweeping multiple
// benchmarks.
func (s *CSVSink) write(bench string, cells []string) error {
	if s.multiBench {
		cells = append([]string{bench}, cells...)
	}
	_, err := fmt.Fprintln(s.w, strings.Join(cells, ","))
	return err
}

// Emit writes one merged row.
func (s *CSVSink) Emit(row *Row) error {
	if err := s.header(); err != nil {
		return err
	}
	if row.Point.Error != "" {
		return nil
	}
	pt := row.Point
	return s.write(row.Bench, engine.CSVRow(s.mode, pt.Width, pt.Depth, pt.ROB, pt.Result()))
}

// Finish writes the header if no row ever did (an all-failed sweep still
// emits a well-formed, empty CSV, as cmd/sweep does).
func (s *CSVSink) Finish() error { return s.header() }

// NDJSONSink streams merged rows as NDJSON, one object per design point
// including failed ones, for downstream tooling that wants raw float64
// values rather than formatted CSV cells.
type NDJSONSink struct {
	enc *json.Encoder
}

// NewNDJSONSink returns a sink writing NDJSON to w.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{enc: json.NewEncoder(w)}
}

type ndjsonRow struct {
	Bench string `json:"bench"`
	service.BatchPoint
}

// Emit writes one merged row.
func (s *NDJSONSink) Emit(row *Row) error {
	return s.enc.Encode(ndjsonRow{Bench: row.Bench, BatchPoint: row.Point})
}
