//! Seeded raii-span violations: a span guard bound to `_` (drops
//! immediately) and a non-LIFO drop, which closes the parent span while
//! its child is still open.

use rqp_obs::{names, SpanKind, Tracer};

pub fn discarded(tracer: &Tracer) {
    let _ = tracer.span(names::SPAN_SESSION, SpanKind::Session);
}

pub fn out_of_order(tracer: &Tracer) {
    let outer = tracer.span(names::SPAN_SESSION, SpanKind::Session);
    let inner = tracer.span(names::SPAN_COMPILE, SpanKind::CompilePhase);
    drop(outer);
    drop(inner);
}
