"""
From Java sources to structural metrics
=======================================

Writes a four-class corpus to a temporary directory, analyzes it, and
walks through everything the metrics pass produces: corpus totals,
per-class numbers, inheritance, and resolved call edges.
"""

import tempfile
from pathlib import Path

from codeforest.model import method_labels
from codeforest.pipeline import analyze

# A small shop: an order holds lines, a discounted order specializes it,
# and a printer talks to orders through a field.
SOURCES = {
    "shop/Order.java": """\
package shop;

public class Order {
    private int total;
    private int lines;
    private String note;

    public Order() {
        total = 0;
        lines = 0;
    }

    public int getTotal() { return total; }

    public void addLine(int amount) {
        total = total + amount;
        lines = lines + 1;
    }

    public String getNote() { return note; }

    public void setNote(String n) { note = n; }
}
""",
    "shop/DiscountedOrder.java": """\
package shop;

public class DiscountedOrder extends Order {
    private int percent;

    public void setPercent(int p) { percent = p; }

    public void applyDiscount() {
        int t = getTotal();
        addLine(-(t * percent) / 100);
    }
}
""",
    "shop/Receipt.java": """\
package shop;

public class Receipt {
    private Order order;

    public void print() {
        int t = order.getTotal();
    }
}
""",
    "util/Clock.java": """\
package util;

public class Clock {
    public long now() { return 0L; }
}
""",
}

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    for rel, text in SOURCES.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    info = analyze(root)

# Corpus totals: one line per counter.
print("totals")
for key, value in info.totals.items():
    print(f"  {key} = {value}")

# Per-class metrics. depth counts inheritance hops to the deepest root,
# fan_in/fan_out count resolved call edges, and cohesion is the share
# of non-constructor method pairs that touch a common field.
print("\nclasses")
for i, cm in enumerate(info.class_metrics):
    print(
        f"  {info.model.qualified_name(i)}: "
        f"{cm.method_count} methods, {cm.loc} loc, depth {cm.depth}, "
        f"fan_in {cm.fan_in}, fan_out {cm.fan_out}, "
        f"cohesion {cm.cohesion:.4f}"
    )
    kinds = ", ".join(f"{k} x{v}" for k, v in cm.kind_histogram.items() if v)
    print(f"    method kinds: {kinds}")

# Order splits into two clusters, total/lines versus note, so only 2
# of its 6 method pairs share a field. Receipt's single method makes
# it fully cohesive by definition.

print("\ninheritance")
for child, parent in info.model.inheritance_edges:
    print(f"  {info.model.qualified_name(child)} "
          f"extends {info.model.qualified_name(parent)}")

# Call edges resolve through three routes: bare calls stay in the
# class (or an ancestor), this.m() ditto, and x.m() follows the
# declared type of field x. Labels disambiguate overloads.
print("\ncall edges")
labels = [method_labels(cls) for cls in info.model.classes]
for edge in info.model.call_edges:
    ci, mi = edge.caller
    ki, ni = edge.callee
    print(
        f"  {info.model.qualified_name(ci)}.{labels[ci][mi]}"
        f" -> {info.model.qualified_name(ki)}.{labels[ki][ni]}"
        f"  x{edge.count}"
    )
