"""Ask questions of a case with triple patterns.

The text form takes one `s p o` line per pattern, `?name` variables,
prefixed names from the standard profile, and `FILTER ?v /regex/` lines.
The programmatic form builds the same thing from Pattern and Variable.
"""

from importlib import resources

from scopekit import Pattern, Variable, parse_turtle, run_query, run_text_query
from scopekit.namespaces import PROP_TACTIC, PROP_TECHNIQUE_ID

g = parse_turtle(
    (resources.files("scopekit") / "fixtures" / "scenario2.ttl").read_text())

# which techniques were used, and under which tactic?
table = run_text_query(g, """
    # join the technique node to both of its literals
    ?t scope-attackpatterns:techniqueId ?id
    ?t scope-attackpatterns:tactic ?tactic
""")
print(f"{len(table.rows)} technique annotations")
print(table.to_tsv())

# same join built in code, narrowed to lateral movement
t, tid = Variable("t"), Variable("id")
table = run_query(
    g,
    [Pattern(t, PROP_TECHNIQUE_ID, tid),
     Pattern(t, PROP_TACTIC, Variable("tactic"))],
    filters=[("tactic", "LateralMovement")])
print("lateral movement only:")
print(table.to_tsv())

# a regex filter runs on the term's text form, at the pattern that binds its variable
table = run_text_query(g, """
    ?t scope-attackpatterns:techniqueId ?id
    FILTER ?id /T15../
""")
print("T15xx family:", [row[0].lexical for row in table.rows])
