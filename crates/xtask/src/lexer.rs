//! A std-only Rust lexer for the `analyze` rules.
//!
//! The rules must never fire on text inside comments or literals (a doc
//! example mentioning `thread_rng` is not a violation). So instead of
//! the old masked-source line scanner this module produces a typed token
//! stream (no rule reads a literal's value today; the tests do):
//!
//! * [`Tok::Ident`] — identifiers and keywords;
//! * [`Tok::Punct`] — single punctuation characters;
//! * [`Tok::Str`] — any string literal (`"…"`, `r"…"`, `r#"…"#`,
//!   `b"…"`, `br#"…"#`, `c"…"`) with its cooked content, however many
//!   lines it spans;
//! * [`Tok::Num`] — numeric literals with their source text;
//! * [`Tok::Lifetime`] — `'a` and friends, disambiguated from char
//!   literals;
//! * [`Tok::Char`] — char literals (content never matters to a rule).
//!
//! Comments (line, doc, and nested block) are dropped entirely. Every
//! token carries the 1-based line it starts on, so findings keep
//! clickable `file:line` coordinates.
//!
//! This is not a full Rust lexer; it covers exactly the constructs that
//! would otherwise cause false positives or negatives, including the
//! three historic blind spots of the retired line scanner: raw strings,
//! multi-line string literals, and `//` sequences *inside* string
//! literals (which must not swallow the rest of the line).

use std::path::Path;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// An identifier or keyword, e.g. `unwrap`, `fn`, `half_width`.
    Ident(String),
    /// A single punctuation character, e.g. `.`, `(`, `!`, `*`.
    Punct(char),
    /// A string literal's cooked content (escapes left as-is; the rules
    /// only ever compare plain-ASCII names).
    Str(String),
    /// A numeric literal's source text, e.g. `1.0`, `0x7F`, `2u64`.
    Num(String),
    /// A lifetime, e.g. `'a` (without the quote).
    Lifetime(String),
    /// A char literal; its content never matters to any rule.
    Char,
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// 1-based line number in the original file.
    pub line: u32,
}

impl SpannedTok {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The string-literal content, if this token is one.
    #[cfg(test)]
    pub fn str_lit(&self) -> Option<&str> {
        match &self.tok {
            Tok::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The numeric-literal text, if this token is one.
    #[cfg(test)]
    pub fn num(&self) -> Option<&str> {
        match &self.tok {
            Tok::Num(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }

    /// Whether this token is the identifier `id`.
    pub fn is_ident(&self, id: &str) -> bool {
        self.ident() == Some(id)
    }
}

/// Tokenize Rust source. Never panics on malformed input: an unclosed
/// literal or comment simply ends at end-of-file.
pub fn lex(src: &str) -> Vec<SpannedTok> {
    Lexer { b: src.as_bytes(), src, i: 0, line: 1, out: Vec::new() }.run()
}

/// One lexed file plus the per-file facts every rule reads.
pub struct FileTokens {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    /// The token stream.
    pub toks: Vec<SpannedTok>,
    /// 1-based inclusive line ranges of `#[cfg(test)]` items.
    pub test_ranges: Vec<(u32, u32)>,
    /// The workspace crate this file belongs to (`"<name>"` for
    /// `crates/<name>/…`, `"root"` for the top-level `src/`, the first
    /// path component otherwise).
    pub krate: String,
    /// Whether this is library code (under a `src/` tree, not under
    /// `tests`/`benches`/`examples`).
    pub is_lib: bool,
}

impl FileTokens {
    /// Lex `src` as the file at repo-relative path `rel`.
    pub fn new(rel: &str, src: &str) -> FileTokens {
        let toks = lex(src);
        let test_ranges = cfg_test_line_ranges(&toks);
        let comps: Vec<&str> = Path::new(rel).iter().filter_map(|c| c.to_str()).collect();
        let krate = if comps.len() >= 2 && comps[0] == "crates" {
            comps[1].to_string()
        } else if comps.first() == Some(&"src") {
            "root".to_string()
        } else {
            comps.first().unwrap_or(&"").to_string()
        };
        let in_test_tree =
            comps.iter().any(|c| matches!(*c, "tests" | "benches" | "examples"));
        let is_lib = !in_test_tree
            && (comps.first() == Some(&"src")
                || (comps.len() >= 3 && comps[0] == "crates" && comps[2] == "src"));
        FileTokens { rel: rel.to_string(), toks, test_ranges, krate, is_lib }
    }

    /// Is `line` inside a `#[cfg(test)]` region?
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(s, e)| line >= s && line <= e)
    }
}

struct Lexer<'a> {
    b: &'a [u8],
    src: &'a str,
    i: usize,
    line: u32,
    out: Vec<SpannedTok>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<SpannedTok> {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' | b'c' if self.starts_raw_string() => self.raw_string(),
                b'b' | b'c' if self.peek(1) == Some(b'"') => {
                    self.i += 1; // the prefix; the quote arm does the rest
                    self.cooked_string();
                }
                b'"' => self.cooked_string(),
                b'\'' => self.quote(),
                _ if c.is_ascii_alphabetic() || c == b'_' => self.ident(),
                _ if c.is_ascii_digit() => self.number(),
                _ if c.is_ascii_whitespace() => self.i += 1,
                _ if !c.is_ascii() => {
                    // Skip a non-ASCII scalar; none of the rules care.
                    self.i += 1;
                    while self.i < self.b.len() && self.b[self.i] & 0xC0 == 0x80 {
                        self.i += 1;
                    }
                }
                _ => {
                    self.out.push(SpannedTok { tok: Tok::Punct(c as char), line: self.line });
                    self.i += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn line_comment(&mut self) {
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
    }

    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while self.i < self.b.len() {
            if self.b[self.i] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.i += 2;
            } else if self.b[self.i] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.i += 2;
                if depth == 0 {
                    return;
                }
            } else {
                if self.b[self.i] == b'\n' {
                    self.line += 1;
                }
                self.i += 1;
            }
        }
    }

    /// Does `b[i..]` begin a raw (byte/C) string literal? Requires the
    /// previous byte to not be identifier-ish, so `for r in xs` is safe.
    fn starts_raw_string(&self) -> bool {
        if self.i > 0 {
            let p = self.b[self.i - 1];
            if p.is_ascii_alphanumeric() || p == b'_' {
                return false;
            }
        }
        let mut j = self.i;
        // Optional b/c prefix before the r.
        if self.b[j] == b'b' || self.b[j] == b'c' {
            j += 1;
        }
        if j >= self.b.len() || self.b[j] != b'r' {
            return false;
        }
        j += 1;
        while j < self.b.len() && self.b[j] == b'#' {
            j += 1;
        }
        j < self.b.len() && self.b[j] == b'"'
    }

    /// `r"…"` / `r#"…"#` / `br##"…"##`: no escapes; terminated by a
    /// quote followed by the same number of hashes.
    fn raw_string(&mut self) {
        let start_line = self.line;
        while self.b[self.i] != b'r' {
            self.i += 1; // skip the b/c prefix
        }
        self.i += 1;
        let mut hashes = 0usize;
        while self.i < self.b.len() && self.b[self.i] == b'#' {
            hashes += 1;
            self.i += 1;
        }
        self.i += 1; // opening quote
        let content_start = self.i;
        let mut content_end = self.b.len();
        while self.i < self.b.len() {
            if self.b[self.i] == b'"'
                && self.b[self.i + 1..].iter().take_while(|&&c| c == b'#').count() >= hashes
            {
                content_end = self.i;
                self.i += 1 + hashes;
                break;
            }
            if self.b[self.i] == b'\n' {
                self.line += 1;
            }
            self.i += 1;
        }
        let content = self.src[content_start..content_end].to_string();
        self.out.push(SpannedTok { tok: Tok::Str(content), line: start_line });
    }

    /// `"…"` with escapes; may span lines.
    fn cooked_string(&mut self) {
        let start_line = self.line;
        let content_start = self.i + 1;
        self.i += 1;
        let mut content_end = self.b.len();
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'"' => {
                    content_end = self.i;
                    self.i += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
        let content = self.src[content_start..content_end.min(self.b.len())].to_string();
        self.out.push(SpannedTok { tok: Tok::Str(content), line: start_line });
    }

    /// A `'`: either a char literal or a lifetime.
    fn quote(&mut self) {
        // Escaped char literal: '\n', '\'', '\u{..}'.
        if self.peek(1) == Some(b'\\') {
            self.i += 2;
            while self.i < self.b.len() && self.b[self.i] != b'\'' {
                self.i += 1;
            }
            self.i += 1; // closing quote
            self.out.push(SpannedTok { tok: Tok::Char, line: self.line });
            return;
        }
        // 'x' (one scalar then a quote) is a char literal; anything else
        // identifier-ish is a lifetime.
        let mut j = self.i + 1;
        if j < self.b.len() {
            // Width of one UTF-8 scalar.
            j += 1;
            while j < self.b.len() && self.b[j] & 0xC0 == 0x80 {
                j += 1;
            }
        }
        if j < self.b.len() && self.b[j] == b'\'' {
            self.i = j + 1;
            self.out.push(SpannedTok { tok: Tok::Char, line: self.line });
            return;
        }
        // Lifetime: consume the identifier after the quote.
        let start = self.i + 1;
        self.i += 1;
        while self.i < self.b.len()
            && (self.b[self.i].is_ascii_alphanumeric() || self.b[self.i] == b'_')
        {
            self.i += 1;
        }
        let name = self.src[start..self.i].to_string();
        self.out.push(SpannedTok { tok: Tok::Lifetime(name), line: self.line });
    }

    fn ident(&mut self) {
        let start = self.i;
        while self.i < self.b.len()
            && (self.b[self.i].is_ascii_alphanumeric() || self.b[self.i] == b'_')
        {
            self.i += 1;
        }
        let text = self.src[start..self.i].to_string();
        self.out.push(SpannedTok { tok: Tok::Ident(text), line: self.line });
    }

    /// Numbers: digits, `_`, type suffixes, hex/octal/binary, a single
    /// decimal point when followed by a digit (so `0..3` stays two
    /// range dots), and exponents with an optional sign.
    fn number(&mut self) {
        let start = self.i;
        while self.i < self.b.len() {
            let c = self.b[self.i];
            if c.is_ascii_alphanumeric() || c == b'_' {
                // An exponent may carry a sign: 1e-5, 2.5E+3.
                if (c == b'e' || c == b'E')
                    && !self.src[start..self.i].starts_with("0x")
                    && matches!(self.peek(1), Some(b'+') | Some(b'-'))
                    && self.peek(2).is_some_and(|d| d.is_ascii_digit())
                {
                    self.i += 2;
                    continue;
                }
                self.i += 1;
            } else if c == b'.'
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                && !self.src[start..self.i].contains('.')
            {
                self.i += 1;
            } else {
                break;
            }
        }
        let text = self.src[start..self.i].to_string();
        self.out.push(SpannedTok { tok: Tok::Num(text), line: self.line });
    }
}

/// 1-based inclusive line ranges of `#[cfg(test)]`-gated items (their
/// attribute through their closing brace). Rules use this to exempt
/// unit-test modules from library-code-only rules. Matching runs on the
/// token stream, so braces inside strings or comments cannot unbalance
/// it.
pub fn cfg_test_line_ranges(toks: &[SpannedTok]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_attr = toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(')')
            && toks[i + 6].is_punct(']');
        if !is_attr {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        // Find the `{` opening the gated item and its matching `}`.
        let mut j = i + 7;
        while j < toks.len() && !toks[j].is_punct('{') {
            // A `;` before any `{` means the attribute gates a braceless
            // item (e.g. `#[cfg(test)] use …;`): exempt just that item.
            if toks[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        let mut end_line = toks.get(j).map(|t| t.line).unwrap_or(start_line);
        if j < toks.len() && toks[j].is_punct('{') {
            let mut depth = 0usize;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            end_line = toks.get(j).map(|t| t.line).unwrap_or(end_line);
        }
        out.push((start_line, end_line));
        i = j.max(i + 7);
    }
    out
}

/// Index of the `)` matching the `(` expected at `toks[open]`; `None`
/// if `toks[open]` is not `(` or the parens never balance.
pub fn matching_close(toks: &[SpannedTok], open: usize) -> Option<usize> {
    if open >= toks.len() || !toks[open].is_punct('(') {
        return None;
    }
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).iter().filter_map(|t| t.ident().map(str::to_string)).collect()
    }

    #[test]
    fn drops_line_and_nested_block_comments() {
        let ids = idents("let x = 1; // thread_rng\n/* panic! /* nested */ */ let y = 2;");
        assert_eq!(ids, vec!["let", "x", "let", "y"]);
    }

    #[test]
    fn string_contents_become_str_tokens() {
        let toks = lex("let s = \"thread_rng\";");
        assert!(toks.iter().all(|t| t.ident() != Some("thread_rng")));
        assert!(toks.iter().any(|t| t.str_lit() == Some("thread_rng")));
    }

    // Regression: the old scanner's first blind spot — raw strings.
    #[test]
    fn raw_strings_lex_as_literals() {
        let toks = lex("let s = r#\"partial_cmp \" inner\"#; let u = unwrap_marker;");
        assert!(toks.iter().all(|t| t.ident() != Some("partial_cmp")));
        assert_eq!(
            toks.iter().find_map(|t| t.str_lit()),
            Some("partial_cmp \" inner")
        );
        assert!(toks.iter().any(|t| t.is_ident("unwrap_marker")));
        // Higher hash counts and byte/C prefixes too.
        let toks = lex("br##\"one \"# two\"##; cr\"three\"; b\"four\"; c\"five\"");
        let lits: Vec<&str> = toks.iter().filter_map(|t| t.str_lit()).collect();
        assert_eq!(lits, vec!["one \"# two", "three", "four", "five"]);
    }

    // Regression: blind spot two — multi-line string literals.
    #[test]
    fn multi_line_strings_keep_line_numbers() {
        let src = "let s = \"line one\nInstant::now()\nline three\";\nlet after = Instant;";
        let toks = lex(src);
        // The literal is one token on line 1; the mention of Instant
        // inside it never becomes an identifier.
        let instants: Vec<u32> =
            toks.iter().filter(|t| t.is_ident("Instant")).map(|t| t.line).collect();
        assert_eq!(instants, vec![4], "{toks:?}");
        // A raw multi-line string behaves the same.
        let toks = lex("let s = r\"a\nb\nc\";\nlet z = SystemTime;");
        let st: Vec<u32> =
            toks.iter().filter(|t| t.is_ident("SystemTime")).map(|t| t.line).collect();
        assert_eq!(st, vec![4]);
    }

    // Regression: blind spot three — `//` inside a string literal must
    // not swallow the rest of the line.
    #[test]
    fn slashes_inside_strings_do_not_start_comments() {
        let toks = lex("let url = \"https://example.com\"; let r = thread_rng();");
        assert!(toks.iter().any(|t| t.is_ident("thread_rng")), "{toks:?}");
        assert!(toks.iter().any(|t| t.str_lit() == Some("https://example.com")));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'p'; let d = '\\n'; }");
        assert_eq!(toks.iter().filter(|t| t.tok == Tok::Char).count(), 2);
        assert!(toks.iter().any(|t| t.tok == Tok::Lifetime("a".into())));
        assert!(!toks.iter().any(|t| t.is_ident("p")));
    }

    #[test]
    fn numbers_lex_with_suffixes_and_ranges() {
        let toks = lex("let a = 1.5; let b = 0x7F; for i in 0..3 {} let c = 1e-5; let d = 2u64;");
        let nums: Vec<&str> = toks.iter().filter_map(|t| t.num()).collect();
        assert_eq!(nums, vec!["1.5", "0x7F", "0", "3", "1e-5", "2u64"]);
    }

    #[test]
    fn tokens_carry_lines() {
        let toks = lex("a.b\nc!(d)");
        let got: Vec<(&str, u32)> =
            toks.iter().filter_map(|t| t.ident().map(|s| (s, t.line))).collect();
        assert_eq!(got, vec![("a", 1), ("b", 1), ("c", 2), ("d", 2)]);
    }

    #[test]
    fn cfg_test_ranges_are_brace_matched() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { let x = { 1 }; }\n}\nfn after() {}";
        let toks = lex(src);
        let ranges = cfg_test_line_ranges(&toks);
        assert_eq!(ranges, vec![(2, 5)]);
        // A string containing `#[cfg(test)]` does not open a region.
        let toks = lex("let s = \"#[cfg(test)] mod x {\"; fn real() {}");
        assert!(cfg_test_line_ranges(&toks).is_empty());
    }

    #[test]
    fn unterminated_constructs_do_not_panic() {
        for src in ["\"unterminated", "r#\"raw", "/* open", "'x", "1.", "b\""] {
            let _ = lex(src);
        }
    }
}
