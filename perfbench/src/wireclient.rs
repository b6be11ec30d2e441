//! A binary-wire client that times each call at the frame boundary.
//!
//! `sjserve::Client` hides the moment a response frame has arrived
//! behind its decode. The benchmark needs both instants — frame in hand
//! (`emit`) and response decoded (`op`) — so it speaks the same protocol
//! directly: the Hello/HelloAck handshake, then one CRC-checked frame per
//! request and response, encoded with `sjserve::wire` exactly as the
//! stock client does.

use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sjserve::protocol::{Request, Response};
use sjserve::wire::{decode_response, encode_request};
use sjwire::{read_frame, write_frame, Frame, Hello, HelloAck, MsgType};

/// How long any read may block before the call counts as failed.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One timed request/response exchange.
pub struct Timed {
    pub response: Response,
    /// Request written to the socket.
    pub sent: Instant,
    /// Response frame fully read (before decoding).
    pub received: Instant,
    /// Response decoded.
    pub decoded: Instant,
    /// The response frame's payload, as it crossed the wire.
    pub payload: Vec<u8>,
}

impl Timed {
    pub fn op_ms(&self) -> f64 {
        ms(self.decoded - self.sent)
    }

    pub fn emit_ms(&self) -> f64 {
        ms(self.received - self.sent)
    }

    pub fn decode_ms(&self) -> f64 {
        ms(self.decoded - self.received)
    }

    /// The response's result-rows section (`sjserve::wire` section 2),
    /// byte for byte; empty when the response carries no rows.
    pub fn result_rows_section(&self) -> Result<&[u8], String> {
        let p = &self.payload;
        let take = |at: usize, n: usize| p.get(at..at + n).ok_or("truncated payload");
        let u32_at = |at: usize| -> Result<usize, String> {
            let b = take(at, 4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
        };
        let mut at = 4 + u32_at(0)?;
        let sections = take(at, 1)?[0];
        at += 1;
        for _ in 0..sections {
            let id = take(at, 1)?[0];
            let len = u32_at(at + 1)?;
            let bytes = take(at + 5, len)?;
            if id == sjserve::wire::SEC_RESULT_ROWS {
                return Ok(bytes);
            }
            at += 5 + len;
        }
        Ok(&[])
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl WireClient {
    pub fn connect(addr: SocketAddr) -> Result<WireClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        let hello = serde_json::to_vec(&Hello::default()).map_err(|e| e.to_string())?;
        write_frame(&mut writer, MsgType::Hello, &hello).map_err(|e| e.to_string())?;
        let frame = read_frame(&mut reader).map_err(|e| format!("handshake: {e}"))?;
        let ack: HelloAck = serde_json::from_slice(&frame.payload)
            .map_err(|e| format!("handshake: bad ack: {e}"))?;
        if frame.msg_type != MsgType::HelloAck || ack.codec != sjwire::CODEC_COLUMNAR {
            return Err(format!(
                "handshake negotiated {:?}/{}",
                frame.msg_type, ack.codec
            ));
        }
        Ok(WireClient { reader, writer })
    }

    /// Send one request and wait for its response frame. Pushed window
    /// frames are not expected on a request connection and fail the call.
    pub fn call(&mut self, request: &Request) -> Result<Timed, String> {
        let payload = encode_request(request);
        let sent = Instant::now();
        write_frame(&mut self.writer, MsgType::Request, &payload).map_err(|e| e.to_string())?;
        let frame = self.read()?;
        let received = Instant::now();
        if frame.msg_type != MsgType::Response {
            return Err(format!("unexpected {:?} frame", frame.msg_type));
        }
        let response = decode_response(&frame.payload).map_err(|e| e.to_string())?;
        let decoded = Instant::now();
        if response.id != request.id {
            return Err(format!(
                "response id {} for request {}",
                response.id, request.id
            ));
        }
        Ok(Timed {
            response,
            sent,
            received,
            decoded,
            payload: frame.payload,
        })
    }

    /// Block for the next frame (a subscriber's pushed window frames).
    pub fn read(&mut self) -> Result<Frame, String> {
        read_frame(&mut self.reader).map_err(|e| e.to_string())
    }

    pub fn close(self) {
        let _ = self.writer.shutdown(Shutdown::Both);
    }
}
