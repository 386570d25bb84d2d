//! Field codecs, and the two macros that declare a message's layout once.
//!
//! A message is its fields in wire order, and each field type has exactly
//! one encoding:
//!
//! - `bool`: one byte, `0` or `1`;
//! - `u32`, `u64`, `f64`: little-endian, fixed width;
//! - `String`: a `u32` byte length, then UTF-8;
//! - `[u8; 32]` (a digest): the 32 bytes, no prefix;
//! - `Vec<T>`: a `u32` element count, then the elements;
//! - `Attrs` (a record's attributes): the bytes of the same `Vec<f64>`;
//! - `Record`: its fields `id`, `attrs`, `label` in that order, decoded by
//!   hand because a reply carries hundreds of them (see its `impl`);
//! - `Option<T>`: a `bool`, then the value when it is `true`;
//! - `(A, B)`: `A`, then `B`.
//!
//! [`wire_struct!`] turns a struct's ordered field list into its encoder and
//! its decoder; [`wire_enum!`] turns a tag table into an enum's tag byte,
//! both matches and the unknown-tag error. Because one list drives both
//! directions, the two cannot disagree on order; a variant without a tag
//! does not compile, and a tag given twice is an unreachable pattern.

use crate::error::WireError;
use crate::io::{Reader, Writer};
use crate::{WireDecode, WireEncode};

/// Both directions of a `Copy` field through one [`Writer`] and one
/// [`Reader`] method.
macro_rules! copy_field {
    ($($ty:ty => $put:ident, $get:ident;)*) => {$(
        impl WireEncode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
        }

        impl WireDecode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$get()
            }
        }
    )*};
}

copy_field! {
    bool => put_bool, get_bool;
    u32 => put_u32, get_u32;
    u64 => put_u64, get_u64;
    f64 => put_f64, get_f64;
}

impl WireEncode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_string(self);
    }
}

impl WireDecode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_string()
    }
}

impl WireEncode for [u8; 32] {
    fn encode(&self, w: &mut Writer) {
        w.put_digest(self);
    }
}

impl WireDecode for [u8; 32] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_digest()
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        for item in self {
            item.encode(w);
        }
    }
}

/// The most elements a decoder reserves on a peer's count claim; the
/// elements that actually arrive grow the rest.
pub(crate) const MAX_RESERVE: usize = 1024;

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_len()?;
        // The count is the peer's claim: reserve a bounded amount up front.
        let mut items = Vec::with_capacity(len.min(MAX_RESERVE));
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(self.is_some());
        if let Some(value) = self {
            value.encode(w);
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if r.get_bool()? {
            T::decode(r).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Declares the wire layout of structs as their fields in wire order:
/// `wire_struct! { Type { a, b, c } }` writes `a`, `b`, `c` and reads them
/// back in the same order, each through its own type's codec. A tuple
/// struct names its fields by index (`FuncId { 0 }`).
macro_rules! wire_struct {
    ($($ty:ident { $($field:tt),* $(,)? })*) => {$(
        impl $crate::WireEncode for $ty {
            fn encode(&self, w: &mut $crate::io::Writer) {
                $($crate::WireEncode::encode(&self.$field, w);)*
            }
        }

        impl $crate::WireDecode for $ty {
            fn decode(
                r: &mut $crate::io::Reader<'_>,
            ) -> Result<Self, $crate::error::WireError> {
                // Struct-expression fields are evaluated in the order written.
                Ok($ty { $($field: $crate::WireDecode::decode(r)?),* })
            }
        }
    )*};
}

/// Declares the wire layout of an enum as a tag table: one tag byte, then
/// the variant's fields in the order listed. A tag is a literal or a `u8`
/// constant; a variant is a unit (`1 => Ping`), a tuple (`3 => Query(q)`)
/// or has named fields (`7 => QueryAt { epoch, query }`). Any other byte
/// decodes to [`WireError::InvalidTag`] naming the enum.
macro_rules! wire_enum {
    ($ty:ident {
        $($tag:tt => $variant:ident $(($($item:ident),*))? $({ $($field:ident),* })?),* $(,)?
    }) => {
        impl $crate::WireEncode for $ty {
            fn encode(&self, w: &mut $crate::io::Writer) {
                match self {
                    $($ty::$variant $(($($item),*))? $({ $($field),* })? => {
                        w.put_u8($tag);
                        $($($crate::WireEncode::encode($item, w);)*)?
                        $($($crate::WireEncode::encode($field, w);)*)?
                    })*
                }
            }
        }

        impl $crate::WireDecode for $ty {
            fn decode(
                r: &mut $crate::io::Reader<'_>,
            ) -> Result<Self, $crate::error::WireError> {
                match r.get_u8()? {
                    $($tag => {
                        $($(let $item = $crate::WireDecode::decode(r)?;)*)?
                        $($(let $field = $crate::WireDecode::decode(r)?;)*)?
                        Ok($ty::$variant $(($($item),*))? $({ $($field),* })?)
                    })*
                    tag => Err($crate::error::WireError::InvalidTag {
                        type_name: stringify!($ty),
                        tag,
                    }),
                }
            }
        }
    };
}

pub(crate) use {wire_enum, wire_struct};
