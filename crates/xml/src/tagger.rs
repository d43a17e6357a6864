//! The constant-space tagger.
//!
//! Consumes a key-clustered sorted-outer-union tuple stream and emits
//! XML text. Space usage is bounded by the view depth — the tagger
//! holds only the stack of currently open elements (with their keys, for
//! defensive clustering checks), never any buffered subtree. This is why
//! the middleware insists on clustered input in the first place (§2).
//!
//! The tagger is *streaming*: [`StreamingTagger`] writes incrementally
//! to any [`std::io::Write`] sink as rows arrive (the publishing service
//! feeds it batches straight from the engine's `ResultStream`, so a
//! document is on the wire before the query has finished executing).
//! [`tag`] is the convenience wrapper that collects the document into a
//! `String` for tests and the CLI.
//!
//! A *segmenting* tagger ([`StreamingTagger::segmenting`]) also records
//! the byte range of every root group's subtree — the splice unit of an
//! incremental republish. The stream is clustered by the root key, so
//! each root group is one contiguous run of rows and of bytes.

use crate::souq::{branch_id, TagPlan};
use std::io::Write;
use std::ops::Range;
use xmlpub_common::{Error, Result, Tuple, Value};

/// One root group's slice of the published document.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// The root element's key values (in `root.key_columns` order).
    pub key: Tuple,
    /// Byte range of the group's subtree within [`SegmentedDoc::bytes`].
    pub range: Range<usize>,
    /// SOU rows tagged into this segment.
    pub rows: u64,
}

/// A published document with per-root-group byte ranges: the skeleton
/// an incremental republish splices into.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedDoc {
    /// The complete document text (UTF-8).
    pub bytes: Vec<u8>,
    /// `bytes[..header_len]` is everything before the first root group
    /// (the open document element).
    pub header_len: usize,
    /// `bytes[footer_start..]` is everything after the last root group
    /// (the document element's close tag).
    pub footer_start: usize,
    /// Root groups in stream order — which is root-key order, because
    /// the SOU sorts by the root key first.
    pub segments: Vec<Segment>,
    /// Whether the document was tagged with pretty-printing.
    pub pretty: bool,
}

impl SegmentedDoc {
    /// Total SOU rows across all segments.
    pub fn rows(&self) -> u64 {
        self.segments.iter().map(|s| s.rows).sum()
    }

    /// The bytes of one segment.
    pub fn segment_bytes(&self, seg: &Segment) -> &[u8] {
        &self.bytes[seg.range.clone()]
    }
}

/// Tag a key-clustered SOU row sequence into a [`SegmentedDoc`].
pub fn segment_rows<'a, I>(rows: I, tag_plan: &TagPlan, pretty: bool) -> Result<SegmentedDoc>
where
    I: IntoIterator<Item = &'a Tuple>,
{
    let mut tagger = StreamingTagger::segmenting(tag_plan, pretty)?;
    for row in rows {
        tagger.write_row(row)?;
    }
    tagger.finish_segmented()
}

/// Escape text content / attribute values.
fn escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
}

/// The tagger's sink plus the number of bytes written to it.
struct Out<W> {
    sink: W,
    written: usize,
}

/// Write a string to the sink, mapping IO failures to [`Error::Xml`].
fn wr<W: Write>(out: &mut Out<W>, s: &str) -> Result<()> {
    out.sink
        .write_all(s.as_bytes())
        .map_err(|e| Error::Xml(format!("tagger sink write failed: {e}")))?;
    out.written += s.len();
    Ok(())
}

/// Segment bookkeeping of a segmenting tagger: the header length, the
/// finished root groups, and the open one as (key, start, rows so far).
struct Segments {
    header_len: usize,
    done: Vec<Segment>,
    open: Option<(Tuple, usize, u64)>,
}

/// One open element on the tagger stack.
struct Open {
    element: String,
    keys: Vec<Value>,
}

/// Incremental tagger writing to an [`io::Write`](std::io::Write) sink.
///
/// Rows must arrive clustered exactly as
/// [`crate::souq::sorted_outer_union`] orders them (parents immediately
/// before their children); violations are detected and reported rather
/// than silently producing interleaved elements. Memory held is the
/// open-element stack plus one small escape buffer — independent of the
/// document size.
pub struct StreamingTagger<'p, W: Write> {
    out: Out<W>,
    tag_plan: &'p TagPlan,
    pretty: bool,
    stack: Vec<Open>,
    started: bool,
    /// Scratch buffer for escaping, reused across rows.
    buf: String,
    /// Present on a segmenting tagger.
    segments: Option<Segments>,
}

impl<'p, W: Write> StreamingTagger<'p, W> {
    /// A tagger over `out`. Nothing is written until the first row (or
    /// [`finish`](Self::finish), which emits an empty document).
    pub fn new(out: W, tag_plan: &'p TagPlan, pretty: bool) -> Self {
        StreamingTagger {
            out: Out { sink: out, written: 0 },
            tag_plan,
            pretty,
            stack: Vec::new(),
            started: false,
            buf: String::new(),
            segments: None,
        }
    }

    fn nl(&mut self) -> Result<()> {
        if self.pretty {
            wr(&mut self.out, "\n")?;
        }
        Ok(())
    }

    fn indent(&mut self, depth: usize) -> Result<()> {
        if self.pretty {
            for _ in 0..depth {
                wr(&mut self.out, "  ")?;
            }
        }
        Ok(())
    }

    fn start_document(&mut self) -> Result<()> {
        if self.started {
            return Ok(());
        }
        self.started = true;
        wr(&mut self.out, "<")?;
        wr(&mut self.out, &self.tag_plan.document_element)?;
        wr(&mut self.out, ">")?;
        self.nl()
    }

    fn close_one(&mut self) -> Result<()> {
        let open = self.stack.pop().expect("close_one on empty stack");
        self.indent(self.stack.len() + 1)?;
        wr(&mut self.out, "</")?;
        wr(&mut self.out, &open.element)?;
        wr(&mut self.out, ">")?;
        self.nl()
    }

    /// Close every open element, leaving the document element open.
    fn close_all(&mut self) -> Result<()> {
        while !self.stack.is_empty() {
            self.close_one()?;
        }
        Ok(())
    }

    /// Emit one sorted-outer-union row: closes finished elements, checks
    /// clustering, opens this row's element and writes its fields.
    pub fn write_row(&mut self, row: &Tuple) -> Result<()> {
        if self.segments.is_some() {
            self.mark_segment(row)?;
        }
        self.start_document()?;
        let tag_plan = self.tag_plan;
        let b = branch_id(row, tag_plan)?;
        let branch = &tag_plan.branches[b];
        let depth = branch.depth;
        // Close elements deeper than or at this depth.
        while self.stack.len() > depth {
            self.close_one()?;
        }
        if self.stack.len() < depth {
            return Err(Error::Xml(format!(
                "stream not clustered: row for depth-{depth} element '{}' arrived with only \
                 {} ancestors open",
                branch.element,
                self.stack.len()
            )));
        }
        // Defensive: ancestor keys must match the open elements.
        for (level, open) in self.stack.iter().enumerate() {
            let expect: Vec<Value> =
                branch.key_cols[level].iter().map(|&c| row.value(c).clone()).collect();
            if expect != open.keys {
                return Err(Error::Xml(format!(
                    "stream not clustered: child of '{}' with keys {:?} arrived while {:?} \
                     is open",
                    open.element, expect, open.keys
                )));
            }
        }
        // Open this element — attributes on the tag, then sub-elements.
        self.indent(depth + 1)?;
        wr(&mut self.out, "<")?;
        wr(&mut self.out, &branch.element)?;
        for (col, name, kind) in &branch.field_cols {
            if *kind != crate::view::FieldKind::Attribute {
                continue;
            }
            let v = row.value(*col);
            if v.is_null() {
                continue;
            }
            self.buf.clear();
            escape(&v.render(), &mut self.buf);
            wr(&mut self.out, " ")?;
            wr(&mut self.out, name)?;
            wr(&mut self.out, "=\"")?;
            wr(&mut self.out, &self.buf)?;
            wr(&mut self.out, "\"")?;
        }
        wr(&mut self.out, ">")?;
        self.nl()?;
        for (col, name, kind) in &branch.field_cols {
            if *kind != crate::view::FieldKind::Element {
                continue;
            }
            let v = row.value(*col);
            if v.is_null() {
                continue; // absent optional content
            }
            self.buf.clear();
            escape(&v.render(), &mut self.buf);
            self.indent(depth + 2)?;
            wr(&mut self.out, "<")?;
            wr(&mut self.out, name)?;
            wr(&mut self.out, ">")?;
            wr(&mut self.out, &self.buf)?;
            wr(&mut self.out, "</")?;
            wr(&mut self.out, name)?;
            wr(&mut self.out, ">")?;
            self.nl()?;
        }
        self.stack.push(Open {
            element: branch.element.clone(),
            keys: branch.key_cols[depth].iter().map(|&c| row.value(c).clone()).collect(),
        });
        Ok(())
    }

    /// Segment bookkeeping for `row`. A root row first force-closes
    /// every open element (the tagger would do exactly that for a
    /// depth-0 row, so the bytes are unchanged); the sink position there
    /// is both the end of the previous group and the start of this one.
    fn mark_segment(&mut self, row: &Tuple) -> Result<()> {
        let root = self.tag_plan.is_root_row(row)?;
        if root {
            self.close_all()?;
        }
        let pos = self.out.written;
        let seg = self.segments.as_mut().expect("segmenting tagger");
        if root {
            if let Some((key, start, rows)) = seg.open.take() {
                seg.done.push(Segment { key, range: start..pos, rows });
            }
            seg.open = Some((self.tag_plan.root_key_of(row), pos, 0));
        }
        match &mut seg.open {
            Some((_, _, rows)) => *rows += 1,
            None => {
                return Err(Error::exec(
                    "sorted-outer-union stream starts with a non-root row; cannot segment",
                ))
            }
        }
        Ok(())
    }

    /// Close every open element and the document element, flush, and
    /// return the sink. Must be called to produce a well-formed document
    /// (dropping the tagger without `finish` truncates the output).
    pub fn finish(mut self) -> Result<W> {
        self.start_document()?; // an empty stream still yields <doc></doc>
        self.close_all()?;
        wr(&mut self.out, "</")?;
        wr(&mut self.out, &self.tag_plan.document_element)?;
        wr(&mut self.out, ">")?;
        self.nl()?;
        self.out.sink.flush().map_err(|e| Error::Xml(format!("tagger sink flush failed: {e}")))?;
        Ok(self.out.sink)
    }
}

impl<'p> StreamingTagger<'p, Vec<u8>> {
    /// An in-memory tagger that also records every root group's byte
    /// range. The document element is opened up front so the header is
    /// delimited even when the stream is empty.
    pub fn segmenting(tag_plan: &'p TagPlan, pretty: bool) -> Result<Self> {
        let mut tagger = StreamingTagger::new(Vec::new(), tag_plan, pretty);
        tagger.start_document()?;
        let header_len = tagger.out.written;
        tagger.segments = Some(Segments { header_len, done: Vec::new(), open: None });
        Ok(tagger)
    }

    /// Close the last group and the document, returning the segmented
    /// bytes. Panics on a tagger not built by
    /// [`StreamingTagger::segmenting`].
    pub fn finish_segmented(mut self) -> Result<SegmentedDoc> {
        let mut seg = self.segments.take().expect("finish_segmented on a plain tagger");
        self.close_all()?;
        let footer_start = self.out.written;
        if let Some((key, start, rows)) = seg.open.take() {
            seg.done.push(Segment { key, range: start..footer_start, rows });
        }
        let pretty = self.pretty;
        Ok(SegmentedDoc {
            bytes: self.finish()?,
            header_len: seg.header_len,
            footer_start,
            segments: seg.done,
            pretty,
        })
    }
}

/// Tag a clustered row stream into an XML string (the materialised
/// convenience form of [`StreamingTagger`]).
pub fn tag<'a>(
    rows: impl IntoIterator<Item = &'a Tuple>,
    tag_plan: &TagPlan,
    pretty: bool,
) -> Result<String> {
    let mut tagger = StreamingTagger::new(Vec::new(), tag_plan, pretty);
    for row in rows {
        tagger.write_row(row)?;
    }
    let bytes = tagger.finish()?;
    Ok(String::from_utf8(bytes).expect("tagger emits UTF-8 only"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::souq::sorted_outer_union;
    use crate::view::supplier_parts_view;
    use xmlpub_engine::execute;
    use xmlpub_tpch::TpchGenerator;

    #[test]
    fn escaping() {
        let mut s = String::new();
        escape("a<b>&'\"", &mut s);
        assert_eq!(s, "a&lt;b&gt;&amp;&apos;&quot;");
    }

    #[test]
    fn end_to_end_figure1_publishing() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let view = supplier_parts_view(&cat).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        let result = execute(&sou.plan, &cat).unwrap();
        let xml = tag(result.rows(), &sou.tag_plan, true).unwrap();
        // Document structure.
        assert!(xml.starts_with("<suppliers>"), "{}", &xml[..100.min(xml.len())]);
        assert!(xml.trim_end().ends_with("</suppliers>"));
        // s_suppkey maps to an attribute on the supplier tag.
        assert_eq!(xml.matches("<supplier s_suppkey=\"").count(), 10);
        assert_eq!(xml.matches("</supplier>").count(), 10);
        assert_eq!(xml.matches("<part>").count(), 800);
        assert_eq!(xml.matches("<p_name>").count(), 800);
        assert_eq!(xml.matches("<s_name>").count(), 10);
        // Well-formed nesting: parts appear between supplier open/close.
        let first_part = xml.find("<part>").unwrap();
        let first_supplier = xml.find("<supplier ").unwrap();
        assert!(first_supplier < first_part);
    }

    #[test]
    fn streaming_and_materialised_taggers_agree_bytewise() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let view = supplier_parts_view(&cat).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        let result = execute(&sou.plan, &cat).unwrap();
        for pretty in [false, true] {
            let whole = tag(result.rows(), &sou.tag_plan, pretty).unwrap();
            // Feed the same rows one at a time through the streaming
            // surface into a byte sink.
            let mut tagger = StreamingTagger::new(Vec::new(), &sou.tag_plan, pretty);
            for row in result.rows() {
                tagger.write_row(row).unwrap();
            }
            let bytes = tagger.finish().unwrap();
            assert_eq!(whole.as_bytes(), &bytes[..], "pretty={pretty}");
        }
    }

    #[test]
    fn empty_stream_produces_empty_document() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let view = supplier_parts_view(&cat).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        let xml = tag(std::iter::empty(), &sou.tag_plan, false).unwrap();
        assert_eq!(xml, "<suppliers></suppliers>");
    }

    #[test]
    fn unclustered_stream_is_rejected() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let view = supplier_parts_view(&cat).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        let result = execute(&sou.plan, &cat).unwrap();
        // Reverse the stream: children arrive before parents.
        let reversed: Vec<_> = result.rows().iter().rev().collect();
        assert!(tag(reversed, &sou.tag_plan, false).is_err());
    }

    #[test]
    fn compact_mode_has_no_newlines() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let view = supplier_parts_view(&cat).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        let result = execute(&sou.plan, &cat).unwrap();
        let xml = tag(result.rows(), &sou.tag_plan, false).unwrap();
        assert!(!xml.contains('\n'));
    }

    /// A sink that fails after a byte budget, proving write errors
    /// surface as `Error::Xml` instead of panicking.
    struct FailingSink {
        budget: usize,
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() > self.budget {
                return Err(std::io::Error::other("sink full"));
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_errors_surface_as_xml_errors() {
        let cat = TpchGenerator::with_scale(0.001).core_catalog().unwrap();
        let view = supplier_parts_view(&cat).unwrap();
        let sou = sorted_outer_union(&view).unwrap();
        let result = execute(&sou.plan, &cat).unwrap();
        let mut tagger = StreamingTagger::new(FailingSink { budget: 64 }, &sou.tag_plan, false);
        let mut failed = None;
        for row in result.rows() {
            if let Err(e) = tagger.write_row(row) {
                failed = Some(e);
                break;
            }
        }
        match failed {
            Some(Error::Xml(msg)) => assert!(msg.contains("sink"), "{msg}"),
            other => panic!("expected an Error::Xml sink failure, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod three_level_tests {
    use super::*;
    use crate::souq::sorted_outer_union;
    use crate::view::customer_orders_view;
    use xmlpub_engine::execute;
    use xmlpub_tpch::{TpchConfig, TpchGenerator};

    #[test]
    fn three_level_view_publishes_well_formed_xml() {
        let gen = TpchGenerator::new(TpchConfig { scale: 0.0002, seed: 11, skew: 0.0 });
        let cat = gen.catalog().unwrap();
        let view = customer_orders_view(&cat).unwrap();
        assert_eq!(view.root.depth(), 3);
        let sou = sorted_outer_union(&view).unwrap();
        let result = execute(&sou.plan, &cat).unwrap();
        let xml = tag(result.rows(), &sou.tag_plan, true).unwrap();

        let customers = cat.data("customer").unwrap().len();
        let orders = cat.data("orders").unwrap().len();
        let lineitems = cat.data("lineitem").unwrap().len();
        assert_eq!(xml.matches("<customer key=\"").count(), customers);
        assert_eq!(xml.matches("<order>").count(), orders);
        assert_eq!(xml.matches("<lineitem>").count(), lineitems);
        // Balanced tags everywhere.
        for el in ["order", "lineitem"] {
            assert_eq!(
                xml.matches(&format!("<{el}>")).count(),
                xml.matches(&format!("</{el}>")).count(),
                "unbalanced <{el}>"
            );
        }
        assert_eq!(xml.matches("</customer>").count(), customers);
        // Every lineitem is nested inside an open order: scan the lines.
        let mut depth_order = 0i64;
        for line in xml.lines() {
            let t = line.trim();
            if t == "<order>" {
                depth_order += 1;
            } else if t == "</order>" {
                depth_order -= 1;
            } else if t == "<lineitem>" {
                assert!(depth_order > 0, "lineitem outside any order");
            }
        }
    }
}
