"""Shared benchmark harness: timing, sweeps, growth fits, table rendering."""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "format_cell": "reporting",
        "print_table": "reporting",
        "read_json_report": "reporting",
        "render_series": "reporting",
        "render_table": "reporting",
        "write_json_report": "reporting",
        "Measurement": "runner",
        "add_json_argument": "runner",
        "emit_json_report": "runner",
        "growth_exponent": "runner",
        "json_report_payload": "runner",
        "speedup": "runner",
        "sweep": "runner",
        "time_thunk": "runner",
    },
)
