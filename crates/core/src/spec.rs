//! The user's chip description: *"The input to the compiler consists of
//! three sections."*

use std::collections::BTreeMap;
use std::fmt;

/// One core element request: a generator name plus its parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementSpec {
    /// Generator name (`"registers"`, `"alu"`, …).
    pub kind: String,
    /// Element parameters (e.g. `count`, `words`, `depth`).
    pub params: BTreeMap<String, i64>,
    /// Bus A stops after this element (a paper-style bus break).
    pub break_bus_a: bool,
    /// Bus B stops after this element.
    pub break_bus_b: bool,
}

/// Errors from building a [`ChipSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Data width outside 1..=64.
    BadDataWidth(u32),
    /// No elements requested.
    NoElements,
    /// Duplicate user microcode field.
    DuplicateField(String),
    /// More than two buses (the style allows at most two through any
    /// element).
    TooManyBuses(usize),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadDataWidth(w) => write!(f, "data width {w} outside 1..=64"),
            SpecError::NoElements => f.write_str("chip has no core elements"),
            SpecError::DuplicateField(n) => write!(f, "duplicate microcode field `{n}`"),
            SpecError::TooManyBuses(n) => {
                write!(f, "{n} buses requested; at most two may run through an element")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// The single-page chip description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipSpec {
    /// Chip name.
    pub name: String,
    /// Section 1: user-declared microcode fields `(name, width)`;
    /// element-required fields are appended by the compiler.
    pub user_fields: Vec<(String, u32)>,
    /// Section 2: data word width in bits.
    pub data_width: u32,
    /// Section 2: bus names (up to two).
    pub buses: Vec<String>,
    /// Section 3: the ordered element list.
    pub elements: Vec<ElementSpec>,
    /// Conditional-assembly flags (e.g. `PROTOTYPE`).
    pub flags: BTreeMap<String, bool>,
}

impl ChipSpec {
    /// Starts a builder.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ChipSpecBuilder {
        ChipSpecBuilder {
            name: name.into(),
            user_fields: Vec::new(),
            data_width: 8,
            buses: vec!["A".into(), "B".into()],
            buses_customized: false,
            elements: Vec::new(),
            flags: BTreeMap::new(),
        }
    }
}

/// Writes the single-page text format that [`crate::parse_page`] reads
/// back into an equal spec.
impl fmt::Display for ChipSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "chip {}", self.name)?;
        for (name, width) in &self.user_fields {
            writeln!(f, "field {name} {width}")?;
        }
        writeln!(f, "width {}", self.data_width)?;
        writeln!(f, "buses {}", self.buses.join(" "))?;
        for e in &self.elements {
            write!(f, "element {}", e.kind)?;
            for (k, v) in &e.params {
                write!(f, " {k}={v}")?;
            }
            writeln!(f)?;
            if e.break_bus_a {
                writeln!(f, "break A")?;
            }
            if e.break_bus_b {
                writeln!(f, "break B")?;
            }
        }
        for (name, on) in &self.flags {
            writeln!(f, "flag {name} {}", if *on { "on" } else { "off" })?;
        }
        Ok(())
    }
}

/// Builder for [`ChipSpec`].
#[derive(Debug, Clone)]
pub struct ChipSpecBuilder {
    name: String,
    user_fields: Vec<(String, u32)>,
    data_width: u32,
    buses: Vec<String>,
    buses_customized: bool,
    elements: Vec<ElementSpec>,
    flags: BTreeMap<String, bool>,
}

impl ChipSpecBuilder {
    /// Sets the data word width (section 2).
    #[must_use]
    pub fn data_width(mut self, bits: u32) -> Self {
        self.data_width = bits;
        self
    }

    /// Declares a user microcode field (section 1).
    #[must_use]
    pub fn microcode_field(mut self, name: impl Into<String>, width: u32) -> Self {
        self.user_fields.push((name.into(), width));
        self
    }

    /// Replaces the default two buses (section 2). The first explicit
    /// call discards the `A`/`B` defaults.
    #[must_use]
    pub fn bus(mut self, name: impl Into<String>) -> Self {
        if !self.buses_customized {
            self.buses.clear();
            self.buses_customized = true;
        }
        self.buses.push(name.into());
        self
    }

    /// Appends a core element (section 3).
    #[must_use]
    pub fn element(mut self, kind: impl Into<String>, params: &[(&str, i64)]) -> Self {
        self.elements.push(ElementSpec {
            kind: kind.into(),
            params: params
                .iter()
                .map(|&(k, v)| (k.to_owned(), v))
                .collect(),
            break_bus_a: false,
            break_bus_b: false,
        });
        self
    }

    /// Appends an already-constructed [`ElementSpec`] — the hook spec
    /// generators use to compose element lists programmatically (the
    /// differential fuzzer builds, shuffles and prunes element vectors
    /// before committing them to a builder).
    #[must_use]
    pub fn push_element(mut self, element: ElementSpec) -> Self {
        self.elements.push(element);
        self
    }

    /// Marks a bus break after the most recent element.
    ///
    /// # Panics
    ///
    /// Panics if no element has been added yet or the bus is unknown.
    #[must_use]
    pub fn break_bus(mut self, bus: usize) -> Self {
        let last = self
            .elements
            .last_mut()
            .expect("break_bus before any element");
        match bus {
            0 => last.break_bus_a = true,
            1 => last.break_bus_b = true,
            other => panic!("no bus {other}"),
        }
        self
    }

    /// Sets a conditional-assembly flag.
    #[must_use]
    pub fn flag(mut self, name: impl Into<String>, value: bool) -> Self {
        self.flags.insert(name.into(), value);
        self
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    ///
    /// See [`SpecError`].
    pub fn build(self) -> Result<ChipSpec, SpecError> {
        if self.data_width == 0 || self.data_width > 64 {
            return Err(SpecError::BadDataWidth(self.data_width));
        }
        if self.elements.is_empty() {
            return Err(SpecError::NoElements);
        }
        if self.buses.len() > 2 {
            return Err(SpecError::TooManyBuses(self.buses.len()));
        }
        let mut seen = std::collections::HashSet::new();
        for (n, _) in &self.user_fields {
            if !seen.insert(n.clone()) {
                return Err(SpecError::DuplicateField(n.clone()));
            }
        }
        Ok(ChipSpec {
            name: self.name,
            user_fields: self.user_fields,
            data_width: self.data_width,
            buses: self.buses,
            elements: self.elements,
            flags: self.flags,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let spec = ChipSpec::builder("t")
            .data_width(16)
            .microcode_field("lit", 8)
            .element("registers", &[("count", 4)])
            .element("alu", &[])
            .break_bus(0)
            .flag("PROTOTYPE", true)
            .build()
            .unwrap();
        assert_eq!(spec.data_width, 16);
        assert_eq!(spec.elements.len(), 2);
        assert!(spec.elements[1].break_bus_a);
        assert_eq!(spec.flags.get("PROTOTYPE"), Some(&true));
        assert_eq!(spec.buses, vec!["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn validation() {
        assert!(matches!(
            ChipSpec::builder("t").data_width(0).element("alu", &[]).build(),
            Err(SpecError::BadDataWidth(0))
        ));
        assert!(matches!(
            ChipSpec::builder("t").build(),
            Err(SpecError::NoElements)
        ));
        assert!(matches!(
            ChipSpec::builder("t")
                .microcode_field("x", 2)
                .microcode_field("x", 3)
                .element("alu", &[])
                .build(),
            Err(SpecError::DuplicateField(_))
        ));
        assert!(matches!(
            ChipSpec::builder("t")
                .bus("A")
                .bus("B")
                .bus("C")
                .element("alu", &[])
                .build(),
            Err(SpecError::TooManyBuses(3))
        ));
    }

    #[test]
    fn push_element_matches_element() {
        let via_helper = ChipSpec::builder("t")
            .element("registers", &[("count", 3)])
            .build()
            .unwrap();
        let direct = ChipSpec::builder("t")
            .push_element(ElementSpec {
                kind: "registers".into(),
                params: [("count".to_owned(), 3i64)].into_iter().collect(),
                break_bus_a: false,
                break_bus_b: false,
            })
            .build()
            .unwrap();
        assert_eq!(via_helper, direct);
    }

    #[test]
    fn custom_single_bus() {
        let spec = ChipSpec::builder("t")
            .bus("MAIN")
            .element("alu", &[])
            .build()
            .unwrap();
        assert_eq!(spec.buses, vec!["MAIN".to_string()]);
    }
}
