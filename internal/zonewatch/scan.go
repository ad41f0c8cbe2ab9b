package zonewatch

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/triage"
)

// backend is the detection backend of every scan: the posting index,
// so a scan keeps only the zone's ACE and non-ASCII names.
const backend = core.BackendPostings

// ErrSeenSet marks an unreadable or corrupt durable seen-set. The
// watcher refuses to scan over it: a half-lost seen-set would re-emit
// already-reported domains, the one mistake a monitoring pipeline must
// never make. The loop goes degraded and retries, so restoring the
// file (or its .bak) recovers without a restart.
var ErrSeenSet = errors.New("zonewatch: seen-set unreadable")

// ErrZoneTruncated marks a zone file that shrank below the plausible
// fraction of the last completed generation — a truncated registry
// drop, not a real day-over-day delta. The watcher refuses to scan it
// and retries with backoff until a plausible zone appears.
var ErrZoneTruncated = errors.New("zonewatch: zone file implausibly small")

// ScanStats summarizes one ScanOnce call.
type ScanStats struct {
	// UpToDate is true when the checkpoint proves the current zone was
	// already fully scanned and nothing was done.
	UpToDate bool
	// Resumed is true when the scan continued from a mid-zone
	// checkpoint instead of starting at offset zero.
	Resumed bool
	// Lines is the number of zone lines consumed by this call.
	Lines int64
	// Names is how many of those carried a scannable candidate FQDN.
	Names int64
	// Added is how many candidates were new to the seen-set (delta
	// lines emitted).
	Added int64
	// Detected is how many added names matched a reference domain.
	Detected int64
	// ZoneBytes is the total zone size at completion.
	ZoneBytes int64
	// SeenLoadMillis is the durable seen-set load time, set on the call
	// that loaded it.
	SeenLoadMillis float64
}

// ScanOnce runs one full delta pass over the configured zone file:
// load (or reuse) the durable seen-set, resume from a valid checkpoint
// or start fresh, stream the zone emitting one deltas line per added
// FQDN, and on reaching EOF merge the session into the seen-set and
// mark the generation complete. Safe to call repeatedly; a completed
// generation returns UpToDate without touching the zone beyond a CRC
// pass. Not safe for concurrent calls on one Watcher — Run serializes.
//
// Cancellation mid-scan aborts without flushing or checkpointing, which
// is exactly the durability situation a SIGKILL leaves behind; the next
// call resumes from the last checkpoint with byte-identical output.
func (w *Watcher) ScanOnce(ctx context.Context) (ScanStats, error) {
	st, err := w.scanLocked(ctx)
	if err == nil {
		w.scans.Add(1)
		w.lastScanUnix.Store(time.Now().Unix())
		w.linesTotal.Add(uint64(st.Lines))
		w.namesTotal.Add(uint64(st.Names))
		w.addedTotal.Add(uint64(st.Added))
		w.detectedTotal.Add(uint64(st.Detected))
	} else if ctx.Err() == nil {
		w.scanErrors.Add(1)
	}
	return st, err
}

func (w *Watcher) scanLocked(ctx context.Context) (st ScanStats, retErr error) {

	// The durable seen-set loads once and stays cached across scans; a
	// corrupt file keeps failing here — loudly, degraded — until the
	// operator restores it, at which point this same path recovers.
	if w.seen == nil {
		t0 := time.Now()
		seen, err := loadSeenSet(w.seenPath())
		if err != nil {
			return st, fmt.Errorf("%w: %v", ErrSeenSet, err)
		}
		w.seen = seen
		st.SeenLoadMillis = float64(time.Since(t0)) / float64(time.Millisecond)
		w.seenLoadMicros.Store(time.Since(t0).Microseconds())
	}
	w.seenSize.Store(int64(w.seen.size()))

	zf, err := os.Open(w.cfg.ZonePath)
	if err != nil {
		return st, fmt.Errorf("open zone: %w", err)
	}
	defer zf.Close()
	fi, err := zf.Stat()
	if err != nil {
		return st, fmt.Errorf("stat zone: %w", err)
	}
	zoneSize := fi.Size()

	ckpt, haveCkpt, ckptErr := readCheckpointFile(w.ckptPath())
	if ckptErr != nil {
		// A corrupt checkpoint is recoverable — the deltas journal holds
		// the ground truth — but worth a line in the log.
		w.logf("zonewatch: discarding unreadable checkpoint: %v", ckptErr)
	}

	// Shrink guard: a zone dramatically smaller than the last completed
	// generation is a truncated or failed registry drop. Refuse it —
	// scanning it is harmless for dedup but would make the watcher
	// declare a bogus generation complete.
	guard := w.lastZoneSize
	if guard == 0 && haveCkpt && ckpt.Complete {
		guard = ckpt.ZoneSize
	}
	if guard > 0 && float64(zoneSize) < w.minZoneFraction()*float64(guard) {
		return st, fmt.Errorf("%w: %d bytes vs %d last generation", ErrZoneTruncated, zoneSize, guard)
	}

	// Completed checkpoint matching this exact zone: nothing to do.
	if haveCkpt && ckpt.Complete && ckpt.ZoneSize == zoneSize {
		if crc, err := prefixCRC(zf, zoneSize); err == nil && crc == ckpt.PrefixCRC {
			w.lastZoneSize = zoneSize
			st.UpToDate = true
			st.ZoneBytes = zoneSize
			return st, nil
		}
	}

	df, err := os.OpenFile(w.deltasPath(), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return st, fmt.Errorf("open deltas: %w", err)
	}
	// The journal is written through df: its Close error is a write
	// error, and swallowing it would let a scan report success whose
	// final journal bytes never landed.
	defer func() {
		if cerr := df.Close(); cerr != nil && retErr == nil {
			retErr = fmt.Errorf("close deltas: %w", cerr)
		}
	}()
	dfi, err := df.Stat()
	if err != nil {
		return st, fmt.Errorf("stat deltas: %w", err)
	}
	deltasSize := dfi.Size()

	// Decide where this scan starts. Three cases, in order of trust:
	//
	//  1. Valid active checkpoint whose zone prefix still matches:
	//     resume exactly — truncate the deltas file to the checkpointed
	//     offset (dropping lines emitted after it; the rescan re-emits
	//     them identically), rebuild the session fingerprints from the
	//     checkpointed region, seek the zone to the offset. Output is
	//     byte-identical to an uninterrupted run.
	//  2. Active checkpoint but the zone changed underneath it: the old
	//     session's emissions are real and must never repeat — ingest
	//     their fingerprints (keeping the lines), then scan the new
	//     zone from the top.
	//  3. No usable checkpoint: if the last generation completed, prior
	//     emissions are already merged into the seen-set and the scan
	//     starts clean; if the checkpoint was lost or corrupt, ingest
	//     the whole deltas journal — the union is idempotent, so
	//     over-ingesting can only prevent duplicates, never cause them.
	var (
		zoneOff      int64
		runningCRC   uint32
		outOff       int64
		scanStartOut int64
		emitted      uint64
	)
	switch {
	case haveCkpt && !ckpt.Complete && ckpt.ZoneOff <= zoneSize && ckpt.OutOff <= deltasSize:
		crc, err := prefixCRC(zf, ckpt.ZoneOff)
		if err != nil {
			return st, fmt.Errorf("validate resume: %w", err)
		}
		if crc == ckpt.PrefixCRC {
			if err := df.Truncate(ckpt.OutOff); err != nil {
				return st, fmt.Errorf("truncate deltas: %w", err)
			}
			if err := w.ingestDeltas(df, ckpt.ScanStartOut, ckpt.OutOff); err != nil {
				return st, fmt.Errorf("reingest deltas: %w", err)
			}
			zoneOff, runningCRC = ckpt.ZoneOff, crc
			scanStartOut, outOff, emitted = ckpt.ScanStartOut, ckpt.OutOff, ckpt.Emitted
			st.Resumed = true
			break
		}
		// Zone changed under the interrupted scan: case 2.
		fallthrough
	case haveCkpt && !ckpt.Complete:
		// Lines past the last checkpoint were emitted too; keep every
		// complete one and its fingerprint, drop only a torn tail.
		end, err := snapshot.CompleteLineEnd(df, ckpt.ScanStartOut, deltasSize)
		if err != nil {
			return st, fmt.Errorf("trim deltas: %w", err)
		}
		if err := df.Truncate(end); err != nil {
			return st, fmt.Errorf("truncate deltas: %w", err)
		}
		if err := w.ingestDeltas(df, ckpt.ScanStartOut, end); err != nil {
			return st, fmt.Errorf("reingest deltas: %w", err)
		}
		scanStartOut, outOff = ckpt.ScanStartOut, end
	case haveCkpt && ckpt.Complete:
		// Normal fresh scan of a new generation: everything emitted so
		// far is merged in the seen-set already.
		scanStartOut, outOff = deltasSize, deltasSize
	default:
		// First run, or lost/corrupt checkpoint: trust only the journal.
		end, err := snapshot.CompleteLineEnd(df, 0, deltasSize)
		if err != nil {
			return st, fmt.Errorf("trim deltas: %w", err)
		}
		if err := df.Truncate(end); err != nil {
			return st, fmt.Errorf("truncate deltas: %w", err)
		}
		if err := w.ingestDeltas(df, 0, end); err != nil {
			return st, fmt.Errorf("reingest deltas: %w", err)
		}
		scanStartOut, outOff = 0, end
	}

	if _, err := zf.Seek(zoneOff, io.SeekStart); err != nil {
		return st, fmt.Errorf("seek zone: %w", err)
	}
	if _, err := df.Seek(outOff, io.SeekStart); err != nil {
		return st, fmt.Errorf("seek deltas: %w", err)
	}

	det, _ := w.cfg.Engine.Current()
	zr := bufio.NewReaderSize(zf, 1<<18)
	dw := bufio.NewWriterSize(df, 1<<16)
	var (
		scratch   []byte
		sinceCkpt int64
		throttleT time.Time
	)
	if w.cfg.ThrottleLPS > 0 {
		throttleT = time.Now()
	}
	flushCheckpoint := func() error {
		if err := dw.Flush(); err != nil {
			return err
		}
		if err := df.Sync(); err != nil {
			return err
		}
		return writeCheckpointFile(w.ckptPath(), checkpoint{
			ZoneSize:     zoneSize,
			ZoneOff:      zoneOff,
			PrefixCRC:    runningCRC,
			ScanStartOut: scanStartOut,
			OutOff:       outOff,
			Emitted:      emitted,
		})
	}

	for {
		line, err := zr.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// Pathologically long line: spill to scratch and keep going.
			scratch = append(scratch[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = zr.ReadSlice('\n')
				scratch = append(scratch, line...)
			}
			line = scratch
		}
		if len(line) > 0 {
			zoneOff += int64(len(line))
			runningCRC = crc32.Update(runningCRC, crc32.IEEETable, line)
			st.Lines++
			sinceCkpt++

			if name, ok := core.NormalizeZoneLine(line, backend); ok {
				st.Names++
				if w.seen.addHash(Fingerprint(name)) {
					matches := det.DetectDomainBytesBackend(name, backend)
					n, werr := writeDeltaLine(dw, name, matches)
					if werr != nil {
						return st, fmt.Errorf("write deltas: %w", werr)
					}
					outOff += int64(n)
					emitted++
					st.Added++
					if len(matches) > 0 {
						st.Detected++
						if w.queue != nil {
							m := matches[0]
							w.queue.push(triage.Input{
								FQDN:      m.FQDN,
								Reference: m.Imitated(),
								Source:    triage.SourceOf(m),
							})
						}
					}
				}
			}

			if sinceCkpt >= w.checkpointEvery() {
				sinceCkpt = 0
				if err := flushCheckpoint(); err != nil {
					return st, fmt.Errorf("checkpoint: %w", err)
				}
			}
			if w.cfg.ThrottleLPS > 0 {
				throttleT = throttleT.Add(time.Second / time.Duration(w.cfg.ThrottleLPS))
				if d := time.Until(throttleT); d > 0 {
					if serr := sleepCtx(ctx, d); serr != nil {
						return st, serr
					}
				}
			}
			if st.Lines%128 == 0 {
				if cerr := ctx.Err(); cerr != nil {
					// Abort cold: no flush, no checkpoint — the same
					// durability state a SIGKILL leaves.
					return st, cerr
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, fmt.Errorf("read zone: %w", err)
		}
	}

	if zoneOff < zoneSize {
		// The file shrank while we were reading it — an in-place
		// truncation mid-drop. Do not finalize; the last checkpoint
		// stands and the retry re-evaluates the zone.
		return st, fmt.Errorf("%w: shrank to %d bytes mid-scan (opened at %d)", ErrZoneTruncated, zoneOff, zoneSize)
	}
	zoneSize = zoneOff // the zone may legitimately have grown under us

	// Completion ordering — each step idempotent under re-execution, so
	// a crash between any two of them is safe:
	//  1. final active checkpoint at EOF (a restart rescans zero lines
	//     and re-runs the merge),
	//  2. merge the session into the durable seen-set (keeping a .bak
	//     of the previous generation),
	//  3. completion checkpoint.
	if err := flushCheckpoint(); err != nil {
		return st, fmt.Errorf("checkpoint: %w", err)
	}
	if len(w.seen.add) > 0 {
		if len(w.seen.base) > 0 {
			if err := snapshot.WriteSeenSetFile(w.seenPath()+".bak", w.seen.base); err != nil {
				return st, fmt.Errorf("write seen-set backup: %w", err)
			}
		}
		merged := w.seen.merged()
		if err := snapshot.WriteSeenSetFile(w.seenPath(), merged); err != nil {
			return st, fmt.Errorf("write seen-set: %w", err)
		}
		w.seen = newSeenSet(merged)
		w.seenSize.Store(int64(len(merged)))
	}
	if err := writeCheckpointFile(w.ckptPath(), checkpoint{
		Complete:     true,
		ZoneSize:     zoneSize,
		ZoneOff:      zoneSize,
		PrefixCRC:    runningCRC,
		ScanStartOut: outOff,
		OutOff:       outOff,
		Emitted:      emitted,
	}); err != nil {
		return st, fmt.Errorf("completion checkpoint: %w", err)
	}
	w.lastZoneSize = zoneSize
	st.ZoneBytes = zoneSize
	return st, nil
}

// ingestDeltas re-reads the deltas journal region [from, to) and seeds
// the session seen-set with the fingerprint of each line's FQDN — the
// resume path's reconstruction of an interrupted session's additions.
func (w *Watcher) ingestDeltas(df *os.File, from, to int64) error {
	if to <= from {
		return nil
	}
	r := bufio.NewReaderSize(io.NewSectionReader(df, from, to-from), 1<<16)
	for {
		line, err := r.ReadBytes('\n')
		if name := firstField(line); len(name) > 0 {
			// Deltas lines are already normalized; fingerprint directly.
			w.seen.addHash(Fingerprint(bytes.TrimRight(name, "\r\n")))
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// firstField returns the first whitespace-delimited field of a deltas
// journal line — the FQDN, ahead of a match's reference and source
// columns.
//
//shamlint:noalloc
func firstField(line []byte) []byte {
	start := 0
	for start < len(line) && (line[start] == ' ' || line[start] == '\t') {
		start++
	}
	end := start
	for end < len(line) && line[end] != ' ' && line[end] != '\t' && line[end] != '\r' && line[end] != '\n' {
		end++
	}
	return line[start:end]
}

// writeDeltaLine emits one added FQDN. Non-matching names are a bare
// FQDN; matches carry the imitated reference and database attribution
// in the survey CLI's match-file format (fqdn TAB reference TAB
// source), so the deltas file feeds `shamfinder survey` directly.
//
//shamlint:noalloc
func writeDeltaLine(w *bufio.Writer, name []byte, matches []core.Match) (int, error) {
	n, err := w.Write(name)
	if err != nil {
		return n, err
	}
	if len(matches) > 0 {
		m := matches[0]
		//shamlint:allow noalloc hit path only — a detected addition is rare and about to be probed over the network anyway
		k, err := fmt.Fprintf(w, "\t%s\t%s", m.Imitated(), triage.SourceOf(m))
		n += k
		if err != nil {
			return n, err
		}
	}
	if err := w.WriteByte('\n'); err != nil {
		return n, err
	}
	return n + 1, nil
}
