package obs

import (
	"context"
	"io"
	"log/slog"

	"repro/internal/obs/span"
)

// NewLogger returns a structured logger writing one JSON object per record
// to w, with trace/span correlation: any record logged through a context
// carrying a span (span.NewContext / the InstrumentHTTP request context)
// gains trace_id and span_id attributes, so log lines join up with
// /debug/tracez traces and exported OTLP spans without any per-call-site
// plumbing. This is the access- and lifecycle-log used by crnserved.
func NewLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	if level == nil {
		level = slog.LevelInfo
	}
	return slog.New(spanHandler{slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})})
}

// spanHandler decorates a slog.Handler so every record handled with a
// span-carrying context is stamped with that span's trace_id and span_id.
// Records without a span pass through untouched.
type spanHandler struct {
	slog.Handler
}

func (h spanHandler) Handle(ctx context.Context, r slog.Record) error {
	if sp := span.FromContext(ctx); sp != nil {
		r.AddAttrs(
			slog.String("trace_id", sp.TraceID().String()),
			slog.String("span_id", sp.SpanID().String()),
		)
	}
	return h.Handler.Handle(ctx, r)
}

func (h spanHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return spanHandler{h.Handler.WithAttrs(attrs)}
}

func (h spanHandler) WithGroup(name string) slog.Handler {
	return spanHandler{h.Handler.WithGroup(name)}
}
