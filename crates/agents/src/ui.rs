//! Declarative UI forms and their event streams.
//!
//! Agents "can also generate UI forms, for example to collect user profiles,
//! specified declaratively and displayed using UI renderers" (§V-B), and UI
//! events "are processed just like any other input through streams" (§VI,
//! Fig 9). A [`UiForm`] is the declarative spec; rendering is a plain-text
//! renderer here, and interactions become [`Message`]s on the form's event
//! stream — exactly the flow the Agentic Employer case study exercises.

use serde::{Deserialize, Serialize};
use serde_json::Value;

use blueprint_streams::Message;

/// The kind of a form field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UiFieldKind {
    /// Single-line text entry.
    Text,
    /// Numeric entry.
    Number,
    /// Single selection from options.
    Select,
    /// Multiple selection from options.
    MultiSelect,
    /// A clickable action button.
    Button,
}

/// One field in a declarative form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UiField {
    /// Field identifier (event payloads refer to it).
    pub id: String,
    /// Display label.
    pub label: String,
    /// Field kind.
    pub kind: UiFieldKind,
    /// Options for (multi)select fields.
    pub options: Vec<String>,
}

impl UiField {
    /// A text field.
    pub fn text(id: impl Into<String>, label: impl Into<String>) -> Self {
        UiField {
            id: id.into(),
            label: label.into(),
            kind: UiFieldKind::Text,
            options: Vec::new(),
        }
    }

    /// A select field with options.
    pub fn select<I, S>(id: impl Into<String>, label: impl Into<String>, options: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        UiField {
            id: id.into(),
            label: label.into(),
            kind: UiFieldKind::Select,
            options: options.into_iter().map(Into::into).collect(),
        }
    }

    /// A button.
    pub fn button(id: impl Into<String>, label: impl Into<String>) -> Self {
        UiField {
            id: id.into(),
            label: label.into(),
            kind: UiFieldKind::Button,
            options: Vec::new(),
        }
    }
}

/// A declaratively specified UI form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UiForm {
    /// Form identifier; its event stream is `<scope>:ui:<id>:events`.
    pub id: String,
    /// Form title shown to the user.
    pub title: String,
    /// Ordered fields.
    pub fields: Vec<UiField>,
}

impl UiForm {
    /// Creates an empty form.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        UiForm {
            id: id.into(),
            title: title.into(),
            fields: Vec::new(),
        }
    }

    /// Builder-style: adds a field.
    pub fn with_field(mut self, field: UiField) -> Self {
        self.fields.push(field);
        self
    }

    /// The event-stream segment (relative to a session scope) where this
    /// form's interaction events are published.
    pub fn event_segment(&self) -> String {
        format!("ui:{}:events", self.id)
    }

    /// Wraps the form spec in a data message tagged `ui-form` so a renderer
    /// agent can display it.
    pub fn into_message(self) -> Message {
        let value = serde_json::to_value(&self).expect("UiForm serializes");
        Message::data_json(value).with_tag("ui-form")
    }

    /// Parses a form out of a `ui-form` message.
    pub fn from_message(msg: &Message) -> Option<Self> {
        if !msg.has_tag(&blueprint_streams::Tag::new("ui-form")) {
            return None;
        }
        serde_json::from_value(msg.payload().clone()).ok()
    }

    /// Creates the event message emitted when the user interacts with a
    /// field (e.g. clicking a job id in the Agentic Employer UI, Fig 9).
    pub fn event(&self, field_id: &str, value: Value) -> Message {
        Message::data_json(serde_json::json!({
            "form": self.id,
            "field": field_id,
            "value": value,
        }))
        .with_tag("ui-event")
        .from_producer("user")
    }

    /// Renders the form as plain text (the terminal stand-in for the
    /// paper's web renderer).
    pub fn render_text(&self) -> String {
        let mut out = format!("┌── {} ──\n", self.title);
        for f in &self.fields {
            let line = match f.kind {
                UiFieldKind::Text => format!("│ {}: [__________]", f.label),
                UiFieldKind::Number => format!("│ {}: [#]", f.label),
                UiFieldKind::Select => format!("│ {}: ({})", f.label, f.options.join(" | ")),
                UiFieldKind::MultiSelect => {
                    format!("│ {}: [{}]", f.label, f.options.join(", "))
                }
                UiFieldKind::Button => format!("│ <{}>", f.label),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str("└──\n");
        out
    }
}

/// Extracts `(form, field, value)` from a `ui-event` message.
pub fn parse_ui_event(msg: &Message) -> Option<(String, String, Value)> {
    if !msg.has_tag(&blueprint_streams::Tag::new("ui-event")) {
        return None;
    }
    let obj = msg.payload().as_object()?;
    Some((
        obj.get("form")?.as_str()?.to_string(),
        obj.get("field")?.as_str()?.to_string(),
        obj.get("value")?.clone(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn form() -> UiForm {
        UiForm::new("profile", "Job Seeker Profile")
            .with_field(UiField::text("name", "Name"))
            .with_field(UiField::select(
                "title",
                "Desired title",
                ["data scientist", "ml engineer"],
            ))
            .with_field(UiField::button("submit", "Submit"))
    }

    #[test]
    fn form_message_round_trip() {
        let f = form();
        let msg = f.clone().into_message();
        let back = UiForm::from_message(&msg).unwrap();
        assert_eq!(back, f);
        // A non-form message parses as None.
        assert!(UiForm::from_message(&Message::data("hi")).is_none());
    }

    #[test]
    fn event_messages_parse() {
        let f = form();
        let ev = f.event("title", json!("data scientist"));
        let (form_id, field, value) = parse_ui_event(&ev).unwrap();
        assert_eq!(form_id, "profile");
        assert_eq!(field, "title");
        assert_eq!(value, json!("data scientist"));
        assert_eq!(ev.producer, "user");
    }

    #[test]
    fn non_event_messages_rejected() {
        assert!(parse_ui_event(&Message::data("x")).is_none());
        let fake = Message::data_json(json!({"form": "f"})).with_tag("ui-event");
        assert!(parse_ui_event(&fake).is_none()); // missing field/value
    }

    #[test]
    fn event_segment_is_scoped_under_form() {
        assert_eq!(form().event_segment(), "ui:profile:events");
    }

    #[test]
    fn render_text_mentions_every_field() {
        let text = form().render_text();
        assert!(text.contains("Job Seeker Profile"));
        assert!(text.contains("Name"));
        assert!(text.contains("data scientist | ml engineer"));
        assert!(text.contains("<Submit>"));
    }

    #[test]
    fn field_constructors() {
        let t = UiField::text("a", "A");
        assert_eq!(t.kind, UiFieldKind::Text);
        let s = UiField::select("b", "B", ["x"]);
        assert_eq!(s.options, ["x"]);
        let b = UiField::button("c", "C");
        assert_eq!(b.kind, UiFieldKind::Button);
    }
}
