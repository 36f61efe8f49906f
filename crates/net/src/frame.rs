//! Wire framing: length prefix + CRC trailer around an opaque body.
//!
//! The frame is the workspace's one stream frame,
//! [`esse_obs::codec::frame`] (`len u32 | body | crc32(body)`), which
//! the run journal uses too; this module re-exports it under the path
//! the protocol layer has always used. The CRC is the same crc32 the
//! on-disk pool records use: one integrity story for the pool whether a
//! record crossed a filesystem or a socket.

pub use esse_obs::codec::frame::*;
