﻿package laden;

/**
 * A price in euro, with a currency symbol inside its field name.
 * Autor: Jürgen Müller. Served in the café next door.
 */
public class Preis {
    private int a€b;
    private String label = "€ pro Stück";

    public int betrag() {
        return a€b;
    }

    public void setzen(int wert) {
        a€b = wert;
        label = label + " → " + wert;
    }
}
