#![warn(missing_docs)]

//! Configuration and settings for SuperSim-rs (paper §III-C).
//!
//! SuperSim configures simulations through the JSON open-standard format and
//! augments it with command-line overrides. This crate provides:
//!
//! - [`Value`] — a JSON document model with ergonomic typed accessors,
//! - [`parse`]/[`Value::parse`] — a from-scratch JSON parser (with `//` line
//!   comments as an extension, useful in hand-written configs),
//! - pretty and compact serialization ([`Value::to_json_pretty`]), and
//!   [`push_uint`], the integer text writer every output format shares,
//! - dotted-path access (`network.router.architecture`) via [`Value::path`]
//!   and [`Value::set_path`],
//! - the paper's Listing-1 command-line override syntax
//!   `path=type=value` via [`apply_override`] / [`apply_overrides`].
//!
//! # Example
//!
//! ```
//! use supersim_config::{parse, apply_override};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cfg = parse(r#"{
//!     // line comments are allowed in configs
//!     "network": { "concentration": 8, "router": { "architecture": "iq" } }
//! }"#)?;
//! assert_eq!(cfg.path("network.concentration").and_then(|v| v.as_u64()), Some(8));
//!
//! // Listing 1 from the paper:
//! apply_override(&mut cfg, "network.router.architecture=string=my_arch")?;
//! apply_override(&mut cfg, "network.concentration=uint=16")?;
//! assert_eq!(cfg.path("network.concentration").and_then(|v| v.as_u64()), Some(16));
//! # Ok(())
//! # }
//! ```

mod error;
mod expand;
mod overrides;
mod parse;
mod ser;
mod value;

pub use error::{ConfigError, ParseErrorKind};
pub use expand::{expand_file, expand_refs};
pub use overrides::{apply_override, apply_overrides, parse_override, Override, OverrideValue};
pub use parse::parse;
pub use ser::{push_json_str, push_uint};
pub use value::{Map, Value};
