//! A minimal, self-contained XML reader and writer.
//!
//! Supports exactly what the DTA schema needs: elements, attributes,
//! text content, self-closing tags, comments, and the five standard
//! entities. No namespaces, DTDs, or processing instructions.

use std::fmt::Write as _;

/// An XML element tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlNode {
    pub name: String,
    pub attrs: Vec<(String, String)>,
    pub children: Vec<XmlNode>,
    /// Concatenated text content directly under this element.
    pub text: String,
}

impl XmlNode {
    /// New element.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), ..Default::default() }
    }

    /// Attribute lookup.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Required attribute lookup.
    pub fn require_attr(&self, name: &str) -> Result<&str, XmlError> {
        self.attr(name).ok_or_else(|| {
            XmlError::new(format!("element <{}> missing attribute '{name}'", self.name))
        })
    }

    /// First child element with a given name.
    pub fn child(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All child elements with a given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> {
        self.children.iter().filter(move |c| c.name == name)
    }
}

/// XML syntax errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    pub message: String,
}

impl XmlError {
    fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "xml error: {}", self.message)
    }
}

impl std::error::Error for XmlError {}

/// Escape text content / attribute values.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, XmlError> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some((plain, entity)) = rest.split_once('&') {
        out.push_str(plain);
        let (entity, tail) =
            entity.split_once(';').ok_or_else(|| XmlError::new("unterminated entity"))?;
        out.push(match entity {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            other => return Err(XmlError::new(format!("unknown entity '&{other};'"))),
        });
        rest = tail;
    }
    out.push_str(rest);
    Ok(out)
}

/// A streaming writer producing indented XML.
#[derive(Debug, Default)]
pub struct XmlWriter {
    buf: String,
    stack: Vec<String>,
    /// whether the current element has children (controls indentation)
    had_children: Vec<bool>,
}

impl XmlWriter {
    /// New writer with the XML declaration.
    pub fn new() -> Self {
        Self {
            buf: "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n".to_string(),
            ..Default::default()
        }
    }

    fn indent(&mut self) {
        for _ in 0..self.stack.len() {
            self.buf.push_str("  ");
        }
    }

    fn mark_parent(&mut self) {
        if let Some(last) = self.had_children.last_mut() {
            *last = true;
        }
    }

    /// Open an element.
    pub fn open(&mut self, name: &str) -> &mut Self {
        self.open_with(name, &[])
    }

    /// Open an element with attributes.
    pub fn open_with(&mut self, name: &str, attrs: &[(&str, &str)]) -> &mut Self {
        self.mark_parent();
        self.indent();
        let _ = write!(self.buf, "<{name}");
        for (k, v) in attrs {
            let _ = write!(self.buf, " {k}=\"{}\"", escape(v));
        }
        self.buf.push_str(">\n");
        self.stack.push(name.to_string());
        self.had_children.push(false);
        self
    }

    /// Emit a self-closing element.
    pub fn leaf(&mut self, name: &str, attrs: &[(&str, &str)]) -> &mut Self {
        self.mark_parent();
        self.indent();
        let _ = write!(self.buf, "<{name}");
        for (k, v) in attrs {
            let _ = write!(self.buf, " {k}=\"{}\"", escape(v));
        }
        self.buf.push_str("/>\n");
        self
    }

    /// Emit an element containing only text.
    pub fn text_element(&mut self, name: &str, attrs: &[(&str, &str)], text: &str) -> &mut Self {
        self.mark_parent();
        self.indent();
        let _ = write!(self.buf, "<{name}");
        for (k, v) in attrs {
            let _ = write!(self.buf, " {k}=\"{}\"", escape(v));
        }
        let _ = writeln!(self.buf, ">{}</{name}>", escape(text));
        self
    }

    /// Close the innermost element.
    pub fn close(&mut self) -> &mut Self {
        let name = self.stack.pop().expect("close without open");
        self.had_children.pop();
        self.indent();
        let _ = writeln!(self.buf, "</{name}>");
        self
    }

    /// Finish, returning the document. Panics if elements remain open.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed elements: {:?}", self.stack);
        self.buf
    }
}

/// Parse a document, returning the root element.
pub fn parse_document(input: &str) -> Result<XmlNode, XmlError> {
    let mut parser = Parser { input: input.as_bytes(), pos: 0, src: input };
    parser.skip_prolog()?;
    let root = parser.element()?;
    parser.skip_ws_and_comments()?;
    if parser.pos != parser.input.len() {
        return Err(XmlError::new("trailing content after root element"));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a [u8],
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    /// `src[from..to]`: the parser stops only on ASCII bytes or after
    /// whole matches, and both are char boundaries.
    fn slice(&self, from: usize, to: usize) -> &'a str {
        self.src.get(from..to).expect("the parser stops only on char boundaries")
    }

    fn rest(&self) -> &'a str {
        self.slice(self.pos, self.src.len())
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                let end =
                    self.rest().find("-->").ok_or_else(|| XmlError::new("unterminated comment"))?;
                self.pos += end + 3;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            let end = self
                .rest()
                .find("?>")
                .ok_or_else(|| XmlError::new("unterminated XML declaration"))?;
            self.pos += end + 2;
        }
        self.skip_ws_and_comments()
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' || c == b':' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(XmlError::new(format!("expected name at byte {}", self.pos)));
        }
        Ok(self.slice(start, self.pos).to_string())
    }

    fn element(&mut self) -> Result<XmlNode, XmlError> {
        if self.peek() != Some(b'<') {
            return Err(XmlError::new(format!("expected '<' at byte {}", self.pos)));
        }
        self.pos += 1;
        let name = self.name()?;
        let mut node = XmlNode::new(&name);

        // attributes
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(XmlError::new("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok(node); // self-closing
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let attr_name = self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(XmlError::new(format!(
                            "expected '=' after attribute '{attr_name}'"
                        )));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let Some(quote @ (b'"' | b'\'')) = self.peek() else {
                        return Err(XmlError::new("expected quoted attribute value"));
                    };
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != quote) {
                        self.pos += 1;
                    }
                    if self.peek().is_none() {
                        return Err(XmlError::new("unterminated attribute value"));
                    }
                    let value = unescape(self.slice(start, self.pos))?;
                    self.pos += 1;
                    node.attrs.push((attr_name, value));
                }
                None => return Err(XmlError::new("unexpected end of input in tag")),
            }
        }

        // content
        loop {
            if self.starts_with("<!--") {
                let end =
                    self.rest().find("-->").ok_or_else(|| XmlError::new("unterminated comment"))?;
                self.pos += end + 3;
                continue;
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != name {
                    return Err(XmlError::new(format!(
                        "mismatched closing tag: expected </{name}>, found </{close}>"
                    )));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(XmlError::new("expected '>' in closing tag"));
                }
                self.pos += 1;
                return Ok(node);
            }
            match self.peek() {
                Some(b'<') => {
                    node.children.push(self.element()?);
                }
                Some(_) => {
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != b'<') {
                        self.pos += 1;
                    }
                    let text = unescape(self.slice(start, self.pos).trim())?;
                    node.text.push_str(&text);
                }
                None => return Err(XmlError::new(format!("unclosed element <{name}>"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_parseable_output() {
        let mut w = XmlWriter::new();
        w.open_with("Root", &[("version", "1.0")]);
        w.leaf("Leaf", &[("x", "a<b&c\"d'e")]);
        w.text_element("Text", &[], "hello <world>");
        w.open("Nested");
        w.leaf("Inner", &[]);
        w.close();
        w.close();
        let doc = w.finish();
        let root = parse_document(&doc).unwrap();
        assert_eq!(root.name, "Root");
        assert_eq!(root.attr("version"), Some("1.0"));
        assert_eq!(root.child("Leaf").unwrap().attr("x"), Some("a<b&c\"d'e"));
        assert_eq!(root.child("Text").unwrap().text, "hello <world>");
        assert_eq!(root.child("Nested").unwrap().children.len(), 1);
    }

    #[test]
    fn parses_hand_written_xml() {
        let doc = r#"<?xml version="1.0"?>
            <!-- a comment -->
            <a p='1'>
               <b/>
               some text
               <c q="2">inner</c>
            </a>"#;
        let root = parse_document(doc).unwrap();
        assert_eq!(root.attr("p"), Some("1"));
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.text, "some text");
        assert_eq!(root.child("c").unwrap().text, "inner");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "<a>",
            "<a></b>",
            "<a x></a>",
            "<a x=1></a>",
            "<a x=\"1></a>",
            "<a>&bogus;</a>",
            "<a></a><b></b>",
            "no xml at all",
            "<a><!-- unterminated </a>",
        ] {
            assert!(parse_document(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn entity_roundtrip() {
        assert_eq!(escape("&<>\"'"), "&amp;&lt;&gt;&quot;&apos;");
        assert_eq!(unescape("&amp;&lt;&gt;&quot;&apos;").unwrap(), "&<>\"'");
    }

    #[test]
    fn children_named_filters() {
        let root = parse_document("<r><x a=\"1\"/><y/><x a=\"2\"/></r>").unwrap();
        let xs: Vec<_> = root.children_named("x").collect();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[1].attr("a"), Some("2"));
    }

    #[test]
    fn require_attr_errors() {
        let root = parse_document("<r/>").unwrap();
        assert!(root.require_attr("missing").is_err());
    }
}
