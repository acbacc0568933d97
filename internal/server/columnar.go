package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/colenc"
)

// ColumnarContentType is the media type of columnar bulk-result payloads
// (the colenc framing, DESIGN.md §14). Requests negotiate it either with
// "format":"columnar" in the body or an Accept header naming this type.
const ColumnarContentType = "application/vnd.simra.columnar"

// acceptFormat defaults an empty body format to "columnar" when the
// request's Accept header names the columnar media type, before
// normalization. An explicit "format" always wins.
func acceptFormat(r *http.Request, format *string) {
	if *format != "" {
		return
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mt) == ColumnarContentType {
			*format = "columnar"
			return
		}
	}
}

// keyTag is the whole-response cache key namespace for one request kind:
// columnar responses live under their own serve/<kind>/columnar/v1 tag,
// so the two formats never collide while the per-shard engine memos stay
// shared (neither format recomputes the other's shards).
func keyTag(kind, format string) string {
	if format == "columnar" {
		return "serve/" + kind + "/columnar/v1"
	}
	return "serve/" + kind + "/v1"
}

// columnarPage parses the ?batch / ?batch_rows continuation parameters.
// absent batch means the full stream; batch_rows defaults to
// colenc.DefaultBatchRows and requires batch.
func columnarPage(r *http.Request) (batch, batchRows int, paged bool, err error) {
	q := r.URL.Query()
	rawBatch, rawRows := q.Get("batch"), q.Get("batch_rows")
	if rawBatch == "" {
		if rawRows != "" {
			return 0, 0, false, fmt.Errorf("batch_rows requires a batch parameter")
		}
		return 0, 0, false, nil
	}
	batch, err = strconv.Atoi(rawBatch)
	if err != nil {
		return 0, 0, false, fmt.Errorf("malformed batch %q: want an integer", rawBatch)
	}
	batchRows = colenc.DefaultBatchRows
	if rawRows != "" {
		batchRows, err = strconv.Atoi(rawRows)
		if err != nil || batchRows <= 0 {
			return 0, 0, false, fmt.Errorf("malformed batch_rows %q: want a positive integer", rawRows)
		}
	}
	return batch, batchRows, true, nil
}

// writeColumnar serves one columnar payload: the full stream, or — under
// ?batch=N (&batch_rows=M) — one page re-framed as a standalone stream,
// with X-Simra-Batch-* continuation headers. Binary payloads never ride
// the JSON envelope (JSON would mangle the bytes); response metadata
// travels in headers instead.
func writeColumnar(w http.ResponseWriter, r *http.Request, output string, headers map[string]string) {
	batch, batchRows, paged, err := columnarPage(r)
	if err != nil {
		writeError(w, r, err, http.StatusBadRequest)
		return
	}
	h := w.Header()
	body := []byte(output)
	if paged {
		page, pi, err := colenc.Page(body, batch, batchRows)
		if err != nil {
			status := http.StatusInternalServerError
			if strings.Contains(err.Error(), "out of range") {
				status = http.StatusUnprocessableEntity
			}
			writeError(w, r, err, status)
			return
		}
		body = page
		h.Set("X-Simra-Total-Rows", strconv.Itoa(pi.TotalRows))
		h.Set("X-Simra-Batch-Count", strconv.Itoa(pi.BatchCount))
		h.Set("X-Simra-Batch", strconv.Itoa(pi.Batch))
		h.Set("X-Simra-Batch-Rows", strconv.Itoa(pi.Rows))
		if pi.Batch < pi.BatchCount-1 {
			h.Set("X-Simra-Batch-Next", strconv.Itoa(pi.Batch+1))
		}
	} else {
		info, err := colenc.Info(body)
		if err != nil {
			writeError(w, r, err, http.StatusInternalServerError)
			return
		}
		h.Set("X-Simra-Total-Rows", strconv.Itoa(info.TotalRows))
		h.Set("X-Simra-Batch-Count", strconv.Itoa(info.BatchCount))
	}
	h.Set("Content-Type", ColumnarContentType)
	for k, v := range headers {
		h.Set(k, v)
	}
	w.Write(body)
}
