//! Client-side protocol code: a keep-alive HTTP/1.1 client for the
//! SPARQL 1.1 Protocol, result decoding for all three paths (HTTP JSON,
//! framed TSV, embedded `QueryResult`) into one [`Table`] of lexical
//! forms.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use scisparql::QueryResult;

/// A SELECT answer as lexical forms: URIs without angle brackets,
/// numbers in the engine's rendering, `""` for an unbound cell.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Table {
    pub vars: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

fn lexical(cell: &str) -> String {
    cell.strip_prefix('<')
        .and_then(|c| c.strip_suffix('>'))
        .unwrap_or(cell)
        .to_string()
}

impl Table {
    pub fn from_result(result: &QueryResult) -> Result<Table, String> {
        match result {
            QueryResult::Solutions { vars, rows } => Ok(Table {
                vars: vars.clone(),
                rows: rows
                    .iter()
                    .map(|r| {
                        r.iter()
                            .map(|c| {
                                c.as_ref()
                                    .map(|v| lexical(&v.to_string()))
                                    .unwrap_or_default()
                            })
                            .collect()
                    })
                    .collect(),
            }),
            other => Err(format!("expected solutions, got {other:?}")),
        }
    }

    /// The framed wire's TSV payload (header of `?var` names).
    pub fn from_tsv(payload: &str) -> Table {
        let mut lines = payload.lines();
        let vars = lines
            .next()
            .unwrap_or_default()
            .split('\t')
            .map(|v| v.trim_start_matches('?').to_string())
            .collect();
        let rows = lines
            .map(|l| l.split('\t').map(lexical).collect())
            .collect();
        Table { vars, rows }
    }

    /// `application/sparql-results+json`.
    pub fn from_json(body: &[u8]) -> Result<Table, String> {
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let doc = Json::parse(text)?;
        let vars: Vec<String> = doc
            .get("head")
            .and_then(|h| h.get("vars"))
            .and_then(Json::as_array)
            .ok_or("no head.vars")?
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect();
        let bindings = doc
            .get("results")
            .and_then(|r| r.get("bindings"))
            .and_then(Json::as_array)
            .ok_or("no results.bindings")?;
        let rows = bindings
            .iter()
            .map(|b| {
                vars.iter()
                    .map(|v| {
                        b.get(v)
                            .and_then(|cell| cell.get("value"))
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    })
                    .collect()
            })
            .collect();
        Ok(Table { vars, rows })
    }

    pub fn col(&self, var: &str) -> Result<usize, String> {
        self.vars
            .iter()
            .position(|v| v.trim_start_matches('?') == var)
            .ok_or_else(|| format!("no column ?{var} in {:?}", self.vars))
    }
}

/// Just enough JSON for SPARQL result documents.
#[derive(Debug)]
enum Json {
    Null,
    Bool,
    Num,
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err("trailing bytes after JSON document".into());
        }
        Ok(v)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') | Some(b'f') => {
                let word = if self.s[self.i] == b't' { 4 } else { 5 };
                self.i += word;
                Ok(Json::Bool)
            }
            Some(b'n') => {
                self.i += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                Ok(Json::Num)
            }
            None => Err("unexpected end of JSON".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        while let Some(&b) = self.s.get(self.i) {
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.s.get(self.i).ok_or("dangling escape")?;
                    self.i += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(
                                self.s.get(self.i..self.i + 4).ok_or("short \\u")?,
                            )
                            .map_err(|e| e.to_string())?;
                            let c = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.i += 4;
                            let mut buf = [0u8; 4];
                            let ch = char::from_u32(c).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        Err("unterminated string".into())
    }
}

/// One HTTP response.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A keep-alive HTTP/1.1 connection.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(HttpClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// The bytes of a `POST path` carrying `statement` as a raw
    /// SPARQL body.
    pub fn post_bytes(path: &str, media_type: &str, statement: &str) -> Vec<u8> {
        let mut req = format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: {media_type}\r\n\
             Accept: application/sparql-results+json\r\nContent-Length: {}\r\n\r\n",
            statement.len()
        )
        .into_bytes();
        req.extend_from_slice(statement.as_bytes());
        req
    }

    /// Send pre-built request bytes and read the whole response.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<Response> {
        self.writer.write_all(request)?;
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line)?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {status_line:?}")))?;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other("connection closed mid-headers"));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(std::io::Error::other)?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(Response { status, body })
    }
}
